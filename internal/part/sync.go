package part

import (
	"sync"
	"sync/atomic"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
)

// Mover abstracts the storage permuted by SyncPermute: one item per slot
// (a tuple; BlockPermute runs the same protocol on whole blocks inline),
// one in-hand item per worker, and a parking area for the
// deadlock-avoidance protocol. Slot operations are only ever invoked on
// slots the permuter has claimed for the calling worker, so
// implementations need no internal synchronization except in Park.
type Mover interface {
	// LoadHand lifts the content of slot into worker w's hand.
	LoadHand(w, slot int)
	// SwapHand exchanges worker w's hand with the content of slot.
	SwapHand(w, slot int)
	// StoreHand writes worker w's hand into slot.
	StoreHand(w, slot int)
	// HandPart returns the partition of the item in worker w's hand.
	HandPart(w int) int
	// Park moves worker w's hand into the parking area and returns a
	// parking token. Park may be called concurrently.
	Park(w int) int
	// Unpark writes a parked item into slot. Called single-threaded during
	// deadlock fix-up.
	Unpark(park, slot int)
}

// SyncPermute is Algorithm 5: multiple workers partition items in place
// inside the same segment using one atomic fetch-and-add counter per
// partition. A worker claims the next unread slot of a partition, lifts its
// item, and follows the swap cycle — each hop claiming one slot of the
// hand's destination partition — until the hand belongs to the start
// partition, which closes the cycle at the start slot. When a chain finds
// its destination partition's counter exhausted (all slots claimed but the
// start slots of in-flight cycles not yet written), waiting could deadlock;
// instead the hand is parked together with the start slot, and a trivial
// offline fix-up matches parked items to recorded slots, which the paper
// shows correspond partition-for-partition.
//
// hist[p] and starts[p] give each partition's slot count and first slot.
// workers is the number of concurrent goroutines.
func SyncPermute(hist, starts []int, workers int, m Mover) {
	np := len(hist)
	used := make([]atomic.Int64, np)
	ob := obs.Cur()

	type record struct {
		park int // parking token holding an item of partition `part`
		part int
		slot int // unwritten cycle-start slot, in partition `need`'s range
		need int
	}
	var mu sync.Mutex
	var records []record

	// Contained fan-out: a worker panic (instead of killing the process, as
	// a bare goroutine panic would) re-raises on the caller with the
	// worker's stack after every sibling finishes. No cancellation inside —
	// an interrupted swap cycle cannot be restored, so workers run to
	// completion even when a sibling fails.
	g := hard.NewGroup(nil)
	for w := 0; w < workers; w++ {
		g.Go(func() {
			var claims uint64
			sp := obs.Begin("sync-permute", "worker", w)
			for k := 0; k < np; k++ {
				// Start each worker at a different partition to spread
				// counter contention.
				p := (k + w*np/workers) % np
			claims:
				for {
					i := used[p].Add(1) - 1
					if i >= int64(hist[p]) {
						break
					}
					claims++
					ibeg := starts[p] + int(i)
					m.LoadHand(w, ibeg)
					for {
						q := m.HandPart(w)
						if q == p {
							m.StoreHand(w, ibeg)
							continue claims
						}
						j := used[q].Add(1) - 1
						if j >= int64(hist[q]) {
							// Destination exhausted: park and record.
							park := m.Park(w)
							mu.Lock()
							records = append(records, record{park: park, part: q, slot: ibeg, need: p})
							mu.Unlock()
							continue claims
						}
						claims++
						m.SwapHand(w, starts[q]+int(j))
					}
				}
			}
			sp.EndN(int64(claims))
			if ob != nil {
				ob.Counters.SyncClaims.Add(claims)
			}
		})
	}
	g.Wait()
	if ob != nil {
		ob.Counters.SyncParks.Add(uint64(len(records)))
	}

	// Offline fix-up: the multiset of parked items' partitions equals the
	// multiset of recorded slots' partitions, so a greedy match resolves
	// every pair.
	if len(records) == 0 {
		return
	}
	parksByPart := make(map[int][]int, np)
	for _, r := range records {
		parksByPart[r.part] = append(parksByPart[r.part], r.park)
	}
	for _, r := range records {
		ps := parksByPart[r.need]
		if len(ps) == 0 {
			panic("part: deadlock fix-up invariant violated: no parked item for partition")
		}
		park := ps[len(ps)-1]
		parksByPart[r.need] = ps[:len(ps)-1]
		m.Unpark(park, r.slot)
	}
}

// tupleMover permutes columnar tuples; the partition of an item is computed
// from its key. It implements the tuple-granularity form of Algorithm 5
// that the paper describes first (and shows to be impractical without
// blocking — kept here as the reference implementation and for tests).
type tupleMover[K kv.Key, F pfunc.Func[K]] struct {
	keys, vals []K
	fn         F
	handK      []K
	handV      []K
	mu         sync.Mutex
	parkK      []K
	parkV      []K
}

func (t *tupleMover[K, F]) LoadHand(w, slot int) {
	t.handK[w], t.handV[w] = t.keys[slot], t.vals[slot]
}

func (t *tupleMover[K, F]) SwapHand(w, slot int) {
	t.handK[w], t.keys[slot] = t.keys[slot], t.handK[w]
	t.handV[w], t.vals[slot] = t.vals[slot], t.handV[w]
}

func (t *tupleMover[K, F]) StoreHand(w, slot int) {
	t.keys[slot], t.vals[slot] = t.handK[w], t.handV[w]
}

func (t *tupleMover[K, F]) HandPart(w int) int {
	return t.fn.Partition(t.handK[w])
}

func (t *tupleMover[K, F]) Park(w int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parkK = append(t.parkK, t.handK[w])
	t.parkV = append(t.parkV, t.handV[w])
	return len(t.parkK) - 1
}

func (t *tupleMover[K, F]) Unpark(park, slot int) {
	t.keys[slot], t.vals[slot] = t.parkK[park], t.parkV[park]
}

// InPlaceSynchronized partitions keys/vals in place inside one shared
// segment using `workers` concurrent goroutines (Algorithm 5 at tuple
// granularity). hist must be the histogram of keys under fn.
func InPlaceSynchronized[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F, hist []int, workers int) {
	CheckHistogram(hist, len(keys))
	starts, _ := Starts(hist)
	m := &tupleMover[K, F]{
		keys: keys, vals: vals, fn: fn,
		handK: make([]K, workers), handV: make([]K, workers),
	}
	SyncPermute(hist, starts, workers, m)
	publishTuples(len(keys))
}
