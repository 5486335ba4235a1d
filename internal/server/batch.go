// Small-request coalescing. Key-only requests at or below
// Config.BatchMaxTuples that queue behind busy executors are merged —
// across tenants — into one run per key width when an executor pops them
// (queue.gather): the merged key column is sorted once with the request
// index as the payload, and each request's sorted keys are scattered back
// from the merged output (any permutation sort keeps every request's
// subsequence in nondecreasing order, so the split is exact). One
// workspace acquisition and one supervisor run are amortized over the
// whole batch — the point of batching on a daemon whose per-sort cost for
// 4K-tuple requests is dominated by dispatch, not sorting.

package server

import (
	"context"
	"time"

	partsort "repro"
)

// runBatch executes one merged batch container and settles every
// coalesced request. The merged run is one LSB sort of b.n keys, charged
// and capped like a request of that size. Its requests' charges need not
// add up to it — the digit plan's tables do not shrink with n, and the
// arena rounds the tmp pair up to a power of two — so the ledger holds
// the difference while it runs.
func (s *Server) runBatch(b *job) {
	s.met.batchSize.Observe(uint64(len(b.subs)), 0)
	s.met.batchesMerged.Inc()
	now := time.Now()
	held := -2 * int64(b.n) * int64(b.width/8) // the merged columns' shares
	for _, sub := range b.subs {
		s.met.queueWait.ObserveDuration(now.Sub(sub.enq), 0)
		held += sub.est
	}
	b.req = &Request{Algo: partsort.LSB} // what the run sorts with
	b.est = s.charge(partsort.LSB, b.n, b.width)
	top := max(0, b.est-held)
	s.pendingAux.Add(top)
	res, err := s.execute(b)
	s.pendingAux.Add(-top)
	res.Batched, res.BatchRequests = true, len(b.subs)
	s.settleBatch(b, res, err)
}

// settleBatch finishes every request of a batch container with a shared
// outcome, preserving each request's own queue wait.
func (s *Server) settleBatch(b *job, shared Result, err error) {
	now := time.Now()
	for _, sub := range b.subs {
		res := shared
		res.QueueWait = now.Sub(sub.enq) - shared.SortTime
		if res.QueueWait < 0 {
			res.QueueWait = 0
		}
		s.met.requestDur.ObserveDuration(now.Sub(sub.enq), 0)
		s.finish(sub, res, err)
	}
}

// batchSort sorts the concatenation of cols by key with the column index
// as payload, then scatters each column's keys back in sorted order.
// The merged run uses LSB: the payload domain is dense (0..len(cols)),
// exactly its best case.
func batchSort[K partsort.Key](ctx context.Context, cols [][]K, opt *partsort.SortOptions, pol *partsort.RetryPolicy) error {
	total := 0
	for _, c := range cols {
		total += len(c)
	}
	keys := make([]K, 0, total)
	vals := make([]K, 0, total)
	for i, c := range cols {
		keys = append(keys, c...)
		for range c {
			vals = append(vals, K(i))
		}
	}
	if err := partsort.SortResilientCtx(ctx, partsort.LSB, keys, vals, opt, pol); err != nil {
		return err
	}
	cur := make([]int, len(cols))
	for i, v := range vals {
		idx := int(v)
		cols[idx][cur[idx]] = keys[i]
		cur[idx]++
	}
	return nil
}
