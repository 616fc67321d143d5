package ctsserver

import (
	"container/heap"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// scheduler is the bounded job scheduler behind the API: a priority queue of
// configurable depth drained by a fixed pool of workers.  Dispatch order is
// highest priority first, then earliest deadline (no deadline sorts last),
// then submission order, so a high-priority job never waits behind a
// lower-priority one once a worker frees.  Submissions beyond the queue
// depth are rejected immediately (the handler turns that into a 429), and
// draining stops intake while the workers finish everything already
// accepted.  Admission is accounted logically (queuedLive): a queued job
// canceled before it starts releases its slot immediately, even though its
// dead entry stays in the heap until a worker pops and skips it.
type scheduler struct {
	depth int
	run   func(*job)
	// expireQueued drives a popped job whose deadline has already passed to
	// the expired terminal state; it reports whether it won that transition
	// (a racing DELETE may have canceled the job first).
	expireQueued func(*job) bool

	mu         sync.Mutex
	cond       *sync.Cond         // signals workers when the heap grows or intake closes
	queue      jobQueue           // guarded by mu
	seq        int64              // guarded by mu; submission order, the final dispatch tiebreak
	queuedLive int                // guarded by mu; queued jobs that are not yet terminal
	byPriority [numPriorities]int // guarded by mu
	running    int                // guarded by mu
	draining   bool               // guarded by mu

	wg        sync.WaitGroup
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	expired   atomic.Int64
	rejected  atomic.Int64
	cacheHits atomic.Int64
}

// jobQueue is the dispatch heap; less is the scheduling policy.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }

func (q jobQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if ra, rb := a.priority.rank(), b.priority.rank(); ra != rb {
		return ra > rb // higher priority dispatches first
	}
	// Within a priority class, earlier deadlines dispatch first; a job
	// without a deadline yields to any job with one.
	switch {
	case a.deadline.IsZero() != b.deadline.IsZero():
		return !a.deadline.IsZero()
	case !a.deadline.IsZero() && !a.deadline.Equal(b.deadline):
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq // FIFO within equal priority and deadline
}

func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *jobQueue) Push(x any) { *q = append(*q, x.(*job)) }

// Pop implements heap.Interface.
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// newScheduler starts the worker pool; run executes one job and is expected
// to drive it to a terminal state, and expireQueued retires a job whose
// deadline passed while it waited in the queue.
func newScheduler(workers, depth int, run func(*job), expireQueued func(*job) bool) *scheduler {
	s := &scheduler{
		depth:        depth,
		run:          run,
		expireQueued: expireQueued,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		s.mu.Unlock()
		// A job whose deadline passed while it waited never starts: it goes
		// terminal as expired instead of burning a worker on a result the
		// client no longer wants.  The transition races a queued-cancel
		// DELETE exactly like setRunning below; whichever side wins has
		// already released (or now releases) the queue slot.
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			if s.expireQueued(j) {
				s.releaseQueued(j)
			}
			continue
		}
		// The queued→running transition is the arbiter against a racing
		// queued→canceled DELETE: exactly one side wins under the job's own
		// lock, and each decrements queuedLive exactly once (the losing
		// cancel path goes through releaseQueued instead).  A job canceled
		// while still queued is skipped without burning the worker.
		if !j.setRunning() {
			continue
		}
		s.mu.Lock()
		s.queuedLive--
		s.byPriority[j.priority.rank()]--
		s.running++
		s.mu.Unlock()
		s.run(j)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// enqueue admits a job to the dispatch queue.  It fails fast with an
// APIError when the server is draining (503) or the queue is full (429, with
// a Retry-After hint).
func (s *scheduler) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return &APIError{HTTPStatus: 503, Code: ErrDraining,
			Message: "server is draining, not accepting new jobs"}
	}
	if s.queuedLive >= s.depth {
		s.rejected.Add(1)
		return &APIError{HTTPStatus: 429, Code: ErrQueueFull, RetryAfter: retryAfterSeconds,
			Message: "job queue is full, retry later"}
	}
	s.seq++
	j.seq = s.seq
	heap.Push(&s.queue, j)
	s.queuedLive++
	s.byPriority[j.priority.rank()]++
	s.submitted.Add(1)
	s.cond.Signal()
	return nil
}

// releaseQueued returns the queue slot of a job that went terminal while
// still queued (canceled or expired before start), so its dead queue entry
// no longer counts against admission.
func (s *scheduler) releaseQueued(j *job) {
	s.mu.Lock()
	s.queuedLive--
	s.byPriority[j.priority.rank()]--
	s.mu.Unlock()
}

// gauges snapshots the live queue occupancy (read per-series by the /metrics
// scrape): total queued, running, and queued split by priority rank.
func (s *scheduler) gauges() (queued, running int, byPriority [numPriorities]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLive, s.running, s.byPriority
}

// isDraining reports whether intake has been stopped.
func (s *scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// note records a job's terminal transition in the counters.
func (s *scheduler) note(state JobState, cacheHit bool) {
	if cacheHit {
		s.cacheHits.Add(1)
	}
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	case StateExpired:
		s.expired.Add(1)
	}
}

// drain stops intake, lets the workers finish every job already accepted
// (queued and in-flight) and returns when the pool is idle.  If the context
// expires first, cancelAll is invoked to cancel the remaining jobs and the
// drain completes as they unwind; the context error is returned.
func (s *scheduler) drain(ctx context.Context, cancelAll func()) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cancelAll()
		<-done
		return ctx.Err()
	}
}
