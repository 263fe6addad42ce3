package runtime

// workerPool runs numeric task bodies concurrently, bounded by size.
type workerPool struct {
	jobs chan func()
}

func newWorkerPool(size int) *workerPool {
	if size < 1 {
		size = 1
	}
	p := &workerPool{jobs: make(chan func(), 4*size)}
	for i := 0; i < size; i++ {
		go func() {
			for j := range p.jobs {
				j()
			}
		}()
	}
	return p
}

func (p *workerPool) submit(f func()) { p.jobs <- f }
func (p *workerPool) close()          { close(p.jobs) }
