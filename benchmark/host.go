package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"syscall"
	"time"
)

// The sandbox this benchmark was built on shares its processors, caches and
// memory with other tenants of the host, and how fast it runs the same
// instructions drifts by 5-10 % over minutes and by half and more in spells:
// ten runs of one seed gave mean search latencies of 1.17-1.33 ms, all of it
// processor time, and neither medians over windows nor best windows removed
// it, because a drift that lasts longer than a phase moves every window alike.
// What does remove most of it is a yardstick: hostRef is a fixed task that uses
// nothing of the program under test and is slowed by the same things, run
// between the searches of a phase.  Over 72 stretches of 7 s the median task
// time tracked the mean search latency with a correlation of 0.96, and
// dividing by it brought the spread of search latencies from 9-12 % down to
// 2-5 %.  README.md, "The host reference", has the rest of the evidence and
// where the ratio stops holding.
//
// The task is one part memory latency and one part allocation and compute,
// about as a request is: a dependent walk through a table larger than the
// private caches, then a few rounds of encoding, decoding and sorting a small
// reply.  (The walk alone over-corrects: in mild drift a search slows by about
// 0.6 of what the walk does.  Walk plus refRounds rounds comes closest to 1:1.)
const (
	refEntries = 1 << 22 // 4 bytes each: 16 MiB
	refSteps   = 1 << 12
	refRounds  = 18
	// refEvery is how many searches lie between two reference tasks: one task
	// of about 1.1 ms every 60 ms of searching.
	refEvery = 50
	// refNominal is the task time all reported times are normalised to, about
	// what this sandbox takes when its host is quiet.  A time is reported as
	// measured x refNominal / (the phase's median task time).
	refNominal = 1100 * time.Microsecond
)

type refHit struct {
	PK         int64              `json:"pk"`
	Score      float64            `json:"score"`
	TermScores map[string]float64 `json:"term_scores"`
}

type hostRef struct {
	next []byte // refEntries little-endian uint32s
	at   uint32
	hits []refHit
	sink int
}

// newHostRef maps its table outside the Go heap, so that it adds a constant
// 16 MiB to rss_peak_mb and nothing to the collector's pacing.
func newHostRef() (*hostRef, error) {
	next, err := syscall.Mmap(-1, 0, 4*refEntries, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference table: %w", err)
	}
	for i := uint32(0); i < refEntries; i++ {
		// A full-period linear congruential step (c odd, a-1 divisible by 4):
		// the walk visits every entry, far apart from one step to the next.
		binary.LittleEndian.PutUint32(next[4*i:], (i*1664525+1013904223)&(refEntries-1))
	}
	h := &hostRef{next: next, hits: make([]refHit, topK)}
	for i := range h.hits {
		h.hits[i] = refHit{PK: int64(i) * 977, Score: float64(i%4) * 1.37, TermScores: map[string]float64{"alpha": 1.5, "beta": 2.5}}
	}
	return h, nil
}

// task performs the reference task once and returns how long it took.
func (h *hostRef) task() time.Duration {
	start := time.Now()
	p := h.at
	for j := 0; j < refSteps; j++ {
		p = binary.LittleEndian.Uint32(h.next[4*p:])
	}
	h.at = p
	for r := 0; r < refRounds; r++ {
		data, _ := json.Marshal(h.hits)
		var back []refHit
		_ = json.Unmarshal(data, &back)
		sort.Slice(back, func(i, j int) bool { return back[i].Score > back[j].Score })
		h.sink += len(back)
	}
	return time.Since(start)
}

// hostFactor is how much slower than refNominal the host ran the reference
// tasks of a phase: the median task time over refNominal, 1 for a phase too
// short to hold one.
func hostFactor(tasks []time.Duration) float64 {
	if len(tasks) == 0 {
		return 1
	}
	v := make([]float64, len(tasks))
	for i, d := range tasks {
		v[i] = float64(d)
	}
	return median(v) / float64(refNominal)
}
