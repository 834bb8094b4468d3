package main

import (
	"math/bits"
	"math/rand/v2"
	"strconv"
	"sync"

	knw "repro"
	"repro/internal/frame"
)

// Workload inputs. Every request body is a pure function of the
// workload seed, the stream number and the body's position in the
// stream, so one seed always replays byte-identical bodies. The daemons
// see only these bodies; the generator keeps the exact truth beside
// them.

const (
	daemonSeed   = 42 // the -seed every knwd of a run shares
	universeBits = 32 // knwd's -universe-bits default
	epsilon      = 0.05
)

// keyString is the wire form of id. It is the same for every store, so
// stores that draw the same id share that key.
func keyString(id uint64) string { return "k" + strconv.FormatUint(id, 10) }

// idSource draws the next id for a store.
type idSource interface {
	draw(rng *rand.Rand, store int) uint64
}

// zipfIDs draws from a zipf law with exponent s over [0, n) per store.
type zipfIDs struct {
	s float64
	n uint64
	z *rand.Zipf // bound to the stream's rng on first draw
}

func (z *zipfIDs) draw(rng *rand.Rand, _ int) uint64 {
	if z.z == nil {
		z.z = rand.NewZipf(rng, z.s, 1, z.n-1)
	}
	return z.z.Uint64()
}

// windowIDs draws uniformly from store i's window [i·step, i·step+width):
// with width = 2·step, neighbouring stores share half their ids.
type windowIDs struct{ step, width uint64 }

func (w windowIDs) draw(rng *rand.Rand, store int) uint64 {
	return uint64(store)*w.step + rng.Uint64N(w.width)
}

// batch is one generated ingest request.
type batch struct {
	store int
	ids   []uint64
	body  []byte
}

// stream generates one client's request bodies. Frame bodies carry
// keys pre-hashed with the daemons' seeded hasher, as the KNWF wire
// contract requires; line bodies carry the key strings.
type stream struct {
	rng    *rand.Rand
	src    idSource
	frames bool
	names  []string
	hasher knw.SeededHasher[string]
	hashed []uint64
}

func newStream(seed, id uint64, src idSource, frames bool, names []string) *stream {
	if z, ok := src.(*zipfIDs); ok {
		cp := *z // each stream binds its own zipf to its own rng
		src = &cp
	}
	return &stream{
		rng:    rand.New(rand.NewPCG(seed, id)),
		src:    src,
		frames: frames,
		names:  names,
		hasher: knw.NewHasher[string](daemonSeed, universeBits),
	}
}

// next generates a body of n keys for store.
func (s *stream) next(store, n int) batch {
	b := batch{store: store, ids: make([]uint64, n)}
	for i := range b.ids {
		b.ids[i] = s.src.draw(s.rng, store)
	}
	if s.frames {
		s.hashed = s.hashed[:0]
		for _, id := range b.ids {
			s.hashed = append(s.hashed, s.hasher.Hash(keyString(id)))
		}
		b.body = frame.AppendDoc(frame.AppendHeader(make([]byte, 0, 16+8*n)), s.names[store], s.hashed)
		return b
	}
	body := make([]byte, 0, 9*n)
	for _, id := range b.ids {
		body = strconv.AppendUint(append(body, 'k'), id, 10)
		body = append(body, '\n')
	}
	b.body = body
	return b
}

// truth is the exact distinct set of every store, as id bitsets. Both
// client streams add to it, so it is locked.
type truth struct {
	mu   sync.Mutex
	sets [][]uint64
}

func newTruth(stores int, ids uint64) *truth {
	t := &truth{sets: make([][]uint64, stores)}
	for i := range t.sets {
		t.sets[i] = make([]uint64, (ids+63)/64)
	}
	return t
}

func (t *truth) add(store int, ids []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.sets[store]
	for _, id := range ids {
		set[id/64] |= 1 << (id % 64)
	}
}

func (t *truth) count(store int) int { return t.combine([]int{store}, false) }

// combine counts the union (or, with and set, the intersection) of the
// given stores' sets.
func (t *truth) combine(stores []int, and bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for w := range t.sets[stores[0]] {
		v := t.sets[stores[0]][w]
		for _, s := range stores[1:] {
			if and {
				v &= t.sets[s][w]
			} else {
				v |= t.sets[s][w]
			}
		}
		n += bits.OnesCount64(v)
	}
	return n
}
