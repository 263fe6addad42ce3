package runtime

// Host-availability index: the virtual time each (rank, datum) pair's host
// copy becomes readable. Graphs that bound their DataID space get a dense
// flat table; everything else falls back to a map.

type hostKey struct {
	rank int
	data DataID
}

// hostAbsent marks a (rank, data) slot of the dense host index with no host
// copy; availability times are always ≥ 0.
const hostAbsent = -1.0

// The dense index is addressed as rank*hostBound + data: one bound-sized
// segment per rank.
func (e *engine) setHostAvail(rank int, d DataID, at float64) {
	if e.hostDense != nil {
		e.hostDense[rank*e.hostBound+int(d)] = at
		return
	}
	e.hostAvail[hostKey{rank, d}] = at
}

func (e *engine) lookupHostAvail(rank int, d DataID) (float64, bool) {
	if e.hostDense != nil {
		v := e.hostDense[rank*e.hostBound+int(d)]
		return v, v != hostAbsent
	}
	v, ok := e.hostAvail[hostKey{rank, d}]
	return v, ok
}

// DataBounder is an optional Graph capability: a graph whose DataIDs all lie
// in [0, DataIDBound()) lets the engine replace the host-availability map
// with a dense per-rank table.
type DataBounder interface {
	DataIDBound() int64
}
