// The bounded priority job queue: a binary heap ordered by (priority,
// admission sequence) under one mutex with a condition variable for the
// executor pool. The depth bound is enforced at admission (Server.admit)
// — every heap entry is an already-admitted job — so push never blocks
// and pop is the only waiting side.
//
// Coalescing happens here, on pop: an executor that takes a coalescible
// head also takes every other queued coalescible job of the same key
// width (see gather). Requests only merge while they wait behind busy
// executors, so an idle server starts each request at once and batching
// grows with load, with no timer to tune.

package server

import (
	"container/heap"
	"slices"
	"sync"
)

// queue is the executor work queue.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   jobHeap
	closed bool

	// maxReqs and maxTotal cap one merged batch's request count and
	// merged key count.
	maxReqs, maxTotal int
}

// newQueue returns an empty open queue whose merged batches hold at most
// maxReqs requests and maxTotal keys.
func newQueue(maxReqs, maxTotal int) *queue {
	q := &queue{maxReqs: maxReqs, maxTotal: maxTotal}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one admitted job. The admission gate (Server.gate)
// orders every push before Drain closes the queue, so executors never
// exit with work still to arrive.
func (q *queue) push(j *job) {
	q.mu.Lock()
	heap.Push(&q.jobs, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and empty;
// ok=false means the executor should exit. A coalescible head comes back
// merged with its queued companions (see gather).
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return nil, false
	}
	head := heap.Pop(&q.jobs).(*job)
	if !head.coalesce || len(q.jobs) == 0 {
		return head, true
	}
	return q.gather(head), true
}

// gather takes, in (priority, sequence) order, every queued coalescible
// job of head's key width that keeps the batch within maxReqs requests
// and maxTotal keys, and rebuilds the heap from the rest. Without
// companions head runs as itself; otherwise the batch container takes
// head's place in the order (its priority and sequence). Called with
// q.mu held.
func (q *queue) gather(head *job) *job {
	var cand []*job
	rest := q.jobs[:0]
	for _, j := range q.jobs {
		if j.coalesce && j.width == head.width {
			cand = append(cand, j)
		} else {
			rest = append(rest, j)
		}
	}
	slices.SortFunc(cand, func(a, b *job) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	subs, total := []*job{head}, head.n
	for _, j := range cand {
		if len(subs) < q.maxReqs && total+j.n <= q.maxTotal {
			subs = append(subs, j)
			total += j.n
		} else {
			rest = append(rest, j)
		}
	}
	clear(q.jobs[len(rest):])
	q.jobs = rest
	heap.Init(&q.jobs)
	if len(subs) == 1 {
		return head
	}
	return &job{n: total, prio: head.prio, seq: head.seq, width: head.width, subs: subs}
}

// close marks the queue draining: executors finish the remaining heap
// and exit.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// before orders jobs by (priority, sequence): lower priority values
// first, FIFO within a priority.
func before(a, b *job) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// jobHeap implements heap.Interface in before order.
type jobHeap []*job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return before(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *jobHeap) Push(x any) { *h = append(*h, x.(*job)) }

// Pop implements heap.Interface.
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
