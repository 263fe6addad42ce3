package precmap

import "geompc/internal/obs"

// Signature returns an FNV-1a hash over every decision the maps feed into a
// factorization's task specs: the kernel, storage and communication
// precision plus the STC flag of each lower-triangle tile. Two Maps with
// equal signatures produce identical task systems (same kernel precisions,
// wire formats, conversion counts), so a compiled plan keyed by this
// signature replays bit-exactly. UReq is deliberately excluded — it only
// influences how Kernel was chosen, not what the engine executes.
func (m *Maps) Signature() uint64 {
	var d obs.Digest
	d.WriteInt64(int64(m.NT))
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			d.WriteUint64(m.tileBits(i, j))
		}
	}
	return d.Sum()
}

// tileBits packs one tile's derived decisions into a comparable word.
func (m *Maps) tileBits(i, j int) uint64 {
	v := uint64(m.Kernel[i][j]) | uint64(m.Storage[i][j])<<8 | uint64(m.Comm[i][j])<<16
	if m.STC[i][j] {
		v |= 1 << 24
	}
	return v
}
