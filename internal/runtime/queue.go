package runtime

// This file holds the engine's two hand-rolled heaps: the global
// completion-event heap and the per-device ready queue. Both avoid
// container/heap so pushing never boxes through an interface — the seed
// allocated one escape per event push and one per flight record.

// event is a committed task's completion notice in virtual time.
type event struct {
	at   float64
	seq  int64
	spec *TaskSpec
}

func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushEvent sifts a completion event into the heap.
func (e *Engine) pushEvent(ev event) {
	e.events = append(e.events, ev)
	h := e.events
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventBefore(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popEvent removes the earliest completion event.
func (e *Engine) popEvent() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDownEvent(h, 0)
	e.events = h
	return top
}

func siftDownEvent(h []event, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && eventBefore(&h[l], &h[m]) {
			m = l
		}
		if r < n && eventBefore(&h[r], &h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// readyBefore is the ready-queue order: descending priority, ties broken by
// ascending task id — a total order, which keeps the simulation
// deterministic.
func readyBefore(a, b *TaskSpec) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.ID < b.ID
}

// taskHeap is one device's ready queue, ordered by readyBefore.
type taskHeap struct {
	items []*TaskSpec
}

func (h *taskHeap) Len() int { return len(h.items) }

// push sifts a ready task into the device's queue.
func (h *taskHeap) push(t *TaskSpec) {
	h.items = append(h.items, t)
	s := h.items
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !readyBefore(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the first ready task.
func (h *taskHeap) pop() *TaskSpec {
	s := h.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && readyBefore(s[l], s[m]) {
			m = l
		}
		if r < n && readyBefore(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	h.items = s
	return top
}
