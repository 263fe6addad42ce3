package runtime

import (
	"fmt"
	gort "runtime"
	"sync"
)

// bodyExec runs the numeric bodies of one graph in dataflow order, as
// PaRSEC starts a task: a body starts once its task has been committed (the
// simulation has placed it; a replay commits everything up front) and the
// body of every graph predecessor has returned. Virtual time orders nothing
// here: the simulated devices and their pipeline depth bound what the model
// overlaps, not what the host runs.
//
// A body that returns an error poisons its graph descendants: they are
// skipped, everything else still runs. Which bodies run is then a property
// of the graph alone, so a failed run leaves the same data and reports the
// same failure at any GOMAXPROCS. A body that panics poisons them the same
// way, and the panic becomes the run's error (a defect, not a numeric
// failure).
type bodyExec struct {
	g Graph

	mu   sync.Mutex
	wake sync.Cond // a task became ready, or finish was called and nothing runs

	// Per task. wait counts the graph predecessors whose body has not
	// returned or been skipped, plus one until the task is committed.
	wait   []int32
	body   []func() error
	prio   []int64
	poison []bool

	ready   queue[int64] // ^priority, ties by task id: the critical path first
	open    int          // committed tasks whose body has neither returned nor been skipped
	running int          // tasks a worker has taken from ready and not yet released
	closing bool         // finish was called: no more commits

	failed, crashed int   // lowest ids among the bodies that failed, that panicked,
	err, crash      error // and their errors

	workers sync.WaitGroup
}

// newBodyExec starts GOMAXPROCS goroutines for the bodies of g's n tasks;
// the caller fills wait before the first commit.
func newBodyExec(g Graph, n int) *bodyExec {
	x := &bodyExec{
		g:    g,
		wait: make([]int32, n), body: make([]func() error, n),
		prio: make([]int64, n), poison: make([]bool, n),
	}
	x.wake.L = &x.mu
	for w := gort.GOMAXPROCS(0); w > 0; w-- {
		x.workers.Add(1)
		go x.work()
	}
	return x
}

// commit hands over task id's body (nil: none, but order passes through).
func (x *bodyExec) commit(id int, prio int64, body func() error) {
	x.mu.Lock()
	x.open++
	x.body[id], x.prio[id] = body, prio
	x.arrive(id)
	x.mu.Unlock()
}

// finish returns, once no body runs or is ready and the goroutines have
// exited, the failure and the panic of the lowest-numbered tasks that had
// one. If tasks were left open (a cycle, an under-released task) and none
// panicked, the second is the run's "never became ready" error.
func (x *bodyExec) finish() (bodyErr, crash error) {
	x.mu.Lock()
	x.closing = true
	x.wake.Broadcast()
	x.mu.Unlock()
	x.workers.Wait()
	return x.err, x.crash
}

// arrive clears one of the conditions task s waits on and queues it at the
// last. (A malformed graph that releases a task more often than its
// in-degree — the event loop reports it — starts nothing twice.)
func (x *bodyExec) arrive(s int) {
	if x.wait[s]--; x.wait[s] == 0 {
		x.ready.push(^x.prio[s], int64(s), nil)
		x.wake.Signal()
	}
}

// work runs ready bodies — skips the poisoned ones — and releases their
// successors, until finish has been called and nothing runs or is ready.
func (x *bodyExec) work() {
	defer x.workers.Done()
	var succ []int
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		for x.ready.Len() == 0 {
			if x.closing && x.running == 0 {
				if x.open > 0 && x.crash == nil {
					x.crash = neverReady(x.open, len(x.wait))
				}
				return
			}
			x.wake.Wait()
		}
		id := int(x.ready.pop().tie)
		x.running++
		body, failed := x.body[id], x.poison[id]
		x.mu.Unlock()
		var err, crash error
		if body != nil && !failed {
			err, crash = call(id, body)
		}
		succ = x.g.Successors(id, succ[:0])
		x.mu.Lock()
		if err != nil && (x.err == nil || id < x.failed) {
			x.failed, x.err = id, err
		}
		if crash != nil && (x.crash == nil || id < x.crashed) {
			x.crashed, x.crash = id, crash
		}
		failed = failed || err != nil || crash != nil
		for _, s := range succ {
			if uint(s) >= uint(len(x.wait)) {
				continue // out of range: the event loop fails the run
			}
			x.poison[s] = x.poison[s] || failed
			x.arrive(s)
		}
		x.open--
		if x.running--; x.running == 0 && x.ready.Len() == 0 && x.closing {
			x.wake.Broadcast()
		}
	}
}

// call runs task id's body, turning a panic into crash: the worker goes on,
// and the run fails instead of the process.
func call(id int, body func() error) (err, crash error) {
	defer func() {
		if r := recover(); r != nil {
			crash = fmt.Errorf("runtime: body of task %d panicked: %v", id, r)
		}
	}()
	return body(), nil
}

// RunBodies runs the numeric bodies of g in dataflow order with no
// simulation around them (a compiled plan's replay) and returns what Run
// would as bodyErr and, as err, what Run would for a body that panicked or
// for tasks that never became ready.
// Without bodies it only calls Spec once per task.
func RunBodies(g Graph) (bodyErr, err error) {
	var x *bodyExec
	var spec TaskSpec
	n := g.NumTasks()
	for id := 0; id < n; id++ {
		g.Spec(id, &spec)
		if x == nil {
			if spec.Body == nil {
				continue
			}
			x = newBodyExec(g, n)
			for i := range x.wait {
				x.wait[i] = int32(g.NumPredecessors(i)) + 1
			}
			for earlier := 0; earlier < id; earlier++ {
				x.commit(earlier, 0, nil)
			}
		}
		x.commit(id, spec.Priority, spec.Body)
	}
	if x == nil {
		return nil, nil
	}
	return x.finish()
}
