package obs

import "math"

// Digest is an FNV-1a 64-bit hash accumulator over a run's schedule. The
// engine feeds it one record per committed task — (kind, device, start, end,
// bytes) — so two runs with equal digests placed the same work on the same
// devices at the same virtual times. Task ids are deliberately *not* hashed:
// they are the graph's private numbering, and the digest describes the
// simulated timeline, so the same work under another numbering hashes alike.
type Digest struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Sum returns the current hash value.
func (d *Digest) Sum() uint64 {
	if d.h == 0 {
		return fnvOffset64 // the zero value is at the FNV-1a offset basis
	}
	return d.h
}

// WriteUint64 hashes v little-endian, byte by byte.
func (d *Digest) WriteUint64(v uint64) {
	h := d.h
	if h == 0 {
		h = fnvOffset64
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	d.h = h
}

// WriteInt64 hashes v as its two's-complement bits.
func (d *Digest) WriteInt64(v int64) { d.WriteUint64(uint64(v)) }

// WriteFloat64 hashes the IEEE-754 bit pattern of v, so the digest is
// bit-exact: two schedules differing by one ULP anywhere hash differently.
func (d *Digest) WriteFloat64(v float64) { d.WriteUint64(math.Float64bits(v)) }

// WriteString hashes the raw bytes of s.
func (d *Digest) WriteString(s string) {
	h := d.h
	if h == 0 {
		h = fnvOffset64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	d.h = h
}
