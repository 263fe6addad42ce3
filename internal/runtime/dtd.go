package runtime

import (
	"fmt"
	"sort"

	"geompc/internal/prec"
)

// AccessMode describes how a DTD task touches a datum, following the
// Dynamic Task Discovery model (§III-B): dependencies are inferred from the
// sequential insertion order and the declared access modes, exactly like
// PaRSEC's DTD or StarPU's implicit data dependencies.
type AccessMode int

const (
	// Read declares a read-only access: the task depends on the datum's
	// last writer and can run concurrently with other readers.
	Read AccessMode = iota
	// Write declares an exclusive read-write access: the task depends on
	// the last writer and on every reader since.
	Write
)

// DTDTask is one dynamically inserted task.
type dtdTask struct {
	spec  TaskSpec
	preds []int
	succs []int
}

// DTDGraph builds a task system by sequential insertion, inferring the
// dependence edges (read-after-write, write-after-read, write-after-write)
// from data access annotations. It implements Graph, so the same engine
// executes DTD- and PTG-defined algorithms interchangeably — the property
// the paper leans on when discussing PaRSEC's DSL family.
//
// Insertion is not thread-safe; build the graph from one goroutine, then
// hand it to an Engine.
type DTDGraph struct {
	tasks []*dtdTask
	// lastWriter and readersSince track, per datum, the versioning state
	// the dependence inference needs.
	lastWriter   map[DataID]int
	readersSince map[DataID][]int
	initial      map[DataID]int
	sealed       bool
}

// NewDTDGraph returns an empty DTD builder.
func NewDTDGraph() *DTDGraph {
	return &DTDGraph{
		lastWriter:   make(map[DataID]int),
		readersSince: make(map[DataID][]int),
		initial:      make(map[DataID]int),
	}
}

// Data registers a datum as host-resident at the given rank before
// execution starts (the matrix-generation phase).
func (g *DTDGraph) Data(d DataID, rank int) {
	g.initial[d] = rank
}

// Access pairs a datum with its mode for task insertion.
type Access struct {
	Data DataID
	Mode AccessMode
	// WireBytes is the transfer size of the datum when it must move for
	// this task (for Read accesses); Bytes is the resident footprint (for
	// Write accesses).
	WireBytes int64
	// Prec labels the element format of the bytes above — the wire format
	// for Read accesses, the storage format for Write accesses — mirroring
	// InputSpec.WirePrec / OutputSpec.Prec.
	Prec prec.Precision
	// Receiver-side conversion, as in InputSpec.
	ConvertElems     int
	ConvFrom, ConvTo prec.Precision
}

// Insert appends a task whose dependencies follow from the declared
// accesses. The spec's Inputs/Output fields are derived from the accesses;
// Kind, Prec, Flops, Device, Priority, Publish and Body are taken from
// spec. It returns the task id.
func (g *DTDGraph) Insert(spec TaskSpec, accesses ...Access) (int, error) {
	if g.sealed {
		return 0, fmt.Errorf("runtime: DTD graph already executing")
	}
	id := len(g.tasks)
	t := &dtdTask{spec: spec}
	t.spec.ID = id
	t.spec.Inputs = nil
	t.spec.Output = OutputSpec{Data: -1}

	depSet := make(map[int]struct{})
	addDep := func(p int) {
		if p >= 0 && p != id {
			depSet[p] = struct{}{}
		}
	}

	wrote := false
	for _, a := range accesses {
		switch a.Mode {
		case Read:
			in := InputSpec{Data: a.Data, WireBytes: a.WireBytes, WirePrec: a.Prec}
			if a.ConvertElems > 0 {
				in.ConvertElems = a.ConvertElems
				in.ConvFrom, in.ConvTo = a.ConvFrom, a.ConvTo
			}
			t.spec.Inputs = append(t.spec.Inputs, in)
			if w, ok := g.lastWriter[a.Data]; ok {
				addDep(w)
			}
			g.readersSince[a.Data] = append(g.readersSince[a.Data], id)
		case Write:
			if wrote {
				return 0, fmt.Errorf("runtime: task %d declares multiple Write accesses", id)
			}
			wrote = true
			t.spec.Output = OutputSpec{Data: a.Data, Bytes: a.WireBytes, Prec: a.Prec}
			if w, ok := g.lastWriter[a.Data]; ok {
				addDep(w)
			}
			for _, r := range g.readersSince[a.Data] {
				addDep(r)
			}
			g.lastWriter[a.Data] = id
			g.readersSince[a.Data] = g.readersSince[a.Data][:0]
		default:
			return 0, fmt.Errorf("runtime: task %d: unknown access mode %d", id, a.Mode)
		}
	}

	// Materialize the dependency set in sorted order: succs drive the
	// ready-queue release order, so map iteration here would leak Go's map
	// seed into the schedule digest.
	t.preds = make([]int, 0, len(depSet))
	for p := range depSet {
		t.preds = append(t.preds, p)
	}
	sort.Ints(t.preds)
	for _, p := range t.preds {
		g.tasks[p].succs = append(g.tasks[p].succs, id)
	}
	g.tasks = append(g.tasks, t)
	return id, nil
}

// NumTasks implements Graph.
func (g *DTDGraph) NumTasks() int { return len(g.tasks) }

// Spec implements Graph. It is a pure read: sealing against further Inserts
// happens in Seal, called once by the engine at Run start.
func (g *DTDGraph) Spec(id int, s *TaskSpec) {
	*s = g.tasks[id].spec
}

// Seal marks the graph as executing: further Inserts fail. The engine calls
// this at the start of every Run.
func (g *DTDGraph) Seal() { g.sealed = true }

// NumPredecessors implements Graph.
func (g *DTDGraph) NumPredecessors(id int) int { return len(g.tasks[id].preds) }

// Successors implements Graph.
func (g *DTDGraph) Successors(id int, buf []int) []int {
	return append(buf, g.tasks[id].succs...)
}

// InitialData implements Graph.
func (g *DTDGraph) InitialData(visit func(d DataID, rank int)) {
	// Visit in DataID order: the engine seeds host availability and
	// residency from this walk, and callbacks must not observe Go's map
	// iteration order.
	ids := make([]DataID, 0, len(g.initial))
	for d := range g.initial {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, d := range ids {
		visit(d, g.initial[d])
	}
}

var _ Graph = (*DTDGraph)(nil)
