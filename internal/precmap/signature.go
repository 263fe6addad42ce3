package precmap

import (
	"encoding/binary"
	"hash/fnv"
)

// Signature returns an FNV-1a hash over every decision the maps feed into a
// factorization's task specs: the kernel, storage and communication
// precision of each lower-triangle tile, from which STC follows. Two Maps
// with equal signatures produce identical task systems (same kernel
// precisions, wire formats, conversion counts), so a compiled plan keyed by
// this signature replays bit-exactly.
func (m *Maps) Signature() uint64 {
	b := binary.LittleEndian.AppendUint64(nil, uint64(m.NT))
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			b = binary.LittleEndian.AppendUint64(b, m.tileBits(i, j))
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// tileBits packs one tile's derived decisions into a comparable word.
func (m *Maps) tileBits(i, j int) uint64 {
	return uint64(m.Kernel[i][j]) | uint64(m.Storage[i][j])<<8 | uint64(m.Comm[i][j])<<16
}
