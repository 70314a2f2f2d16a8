package taskselect

import (
	"encoding/binary"
	"sync"

	"hcrowd/internal/belief"
)

// evalScratch bundles the per-evaluation working buffers: the projection
// vector q, the query-set fact list, the per-unit tables of the assignment
// evaluator, the family enumerator's accumulator acc, tensor buffers ta/tb
// and factor vector v, and the per-unit Bernoulli entropy table hB. One
// scratch serves one evaluation at a time; the pool hands each goroutine
// of the parallel refill its own. Pooling only recycles capacity — every
// buffer is re-filled before use — so reuse cannot perturb results.
type evalScratch struct {
	q              []float64
	facts          []int
	pyes           [][2]float64
	pos            []int
	units          []unitRef
	key            []byte
	acc, ta, tb, v []float64
	hB             [][2]float64
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch() *evalScratch  { return scratchPool.Get().(*evalScratch) }
func putScratch(s *evalScratch) { scratchPool.Put(s) }

// grow returns s with length exactly n, reusing its backing array when
// the capacity allows. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// projectionInto computes the belief's marginal on the ordered fact list
// into q (resized as needed) and returns it. It accumulates observations
// in the same order as projection, so the two agree bitwise.
func projectionInto(q []float64, d *belief.Dist, facts []int) []float64 {
	s := len(facts)
	q = grow(q, 1<<uint(s))
	for i := range q {
		q[i] = 0
	}
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		p := 0
		for j, f := range facts {
			if belief.Models(o, f) {
				p |= 1 << uint(j)
			}
		}
		q[p] += po
	}
	return q
}

// projKey appends a self-delimiting encoding of the fact list to buf and
// returns it — the projection-memo key. Varint-encoding each index keeps
// the key collision-free for fact indices of any size; the previous
// single-byte encoding truncated indices ≥ 256 onto each other and could
// serve the wrong task projection.
func projKey(buf []byte, facts []int) []byte {
	for _, f := range facts {
		buf = binary.AppendUvarint(buf, uint64(f))
	}
	return buf
}
