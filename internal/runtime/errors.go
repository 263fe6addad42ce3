package runtime

import "fmt"

// GraphError reports a malformed task graph: a task assigned to a device
// that doesn't exist, a DataID outside [0, NumData()), an input with no
// host copy at the task's rank, a successor outside [0, NumTasks()), or a
// task released more often than its declared in-degree (a self-loop among
// them). Run stops on the first, so a bad graph fails its run, not the
// process.
type GraphError struct {
	Task int    // the offending task id; -1 for the graph's initial data
	Msg  string // what is malformed about it
}

func (g *GraphError) Error() string {
	if g.Task < 0 {
		return "runtime: malformed graph: " + g.Msg
	}
	return fmt.Sprintf("runtime: malformed graph: task %d %s", g.Task, g.Msg)
}

// neverReady is the error of a run in which left of its n tasks never
// became ready.
func neverReady(left, n int) error {
	return fmt.Errorf("runtime: %d of %d tasks never became ready (dependency cycle or missing data)", left, n)
}

// fail records the run's first fatal error; the event loop (and the commit
// path) stop at the next check. Later errors are dropped — the first one is
// the cause, anything after it is fallout.
func (e *engine) fail(err error) {
	if e.fatalErr == nil {
		e.fatalErr = err
	}
}
