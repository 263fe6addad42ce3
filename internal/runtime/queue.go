package runtime

// queue is the engine's one priority queue: a binary min-heap ordered by
// (key, tie), compared inline with no comparator call in the sift loops and
// no container/heap boxing. Completion events are keyed by (virtual time,
// commit sequence); ready tasks — a device's and the body executor's — by
// (^Priority, task id): highest priority first, then lowest id (^p reverses
// int64's order without overflowing at math.MinInt64, which -p would). Both
// orders are total, so the pop order does not depend on the heap's layout.
type queue[K float64 | int64] struct {
	items []queued[K]
}

// queued is one entry; spec is nil in the body executor's queue.
type queued[K float64 | int64] struct {
	key  K
	tie  int64
	spec *TaskSpec
}

func before[K float64 | int64](a, b *queued[K]) bool {
	return a.key < b.key || a.key == b.key && a.tie < b.tie
}

func (q *queue[K]) Len() int { return len(q.items) }

// push sifts an entry into the queue.
func (q *queue[K]) push(key K, tie int64, spec *TaskSpec) {
	q.items = append(q.items, queued[K]{key, tie, spec})
	s := q.items
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the first entry.
func (q *queue[K]) pop() queued[K] {
	s := q.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = queued[K]{} // drop the spec pointer
	s = s[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && before(&s[l], &s[m]) {
			m = l
		}
		if r < n && before(&s[r], &s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	q.items = s
	return top
}
