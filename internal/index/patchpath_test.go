package index

import (
	"testing"
)

// TestScoreUpdateLoopHitsPatchPath guards the tentpole fast path end to end:
// for every method, a one-at-a-time score-update loop (one-op batches) over
// known documents must be absorbed by the B+-tree's in-place leaf patch
// (fixed-width table rows), and the queries that follow must still rank
// against the new scores.  A TablePatches collapse to zero here means the
// write path silently fell back to full leaf rewrites.
func TestScoreUpdateLoopHitsPatchPath(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)

			const rounds = 8
			updates := 0
			for r := 1; r <= rounds; r++ {
				for _, doc := range corpus.order {
					// Small drift: scores move but stay in the same chunk /
					// below the threshold most of the time, so the dominant
					// write is the fixed-width Score-table row.
					newScore := corpus.scores[doc] * 1.01
					corpus.scores[doc] = newScore
					if err := updateScore(m, doc, newScore); err != nil {
						t.Fatalf("UpdateScore(%d): %v", doc, err)
					}
					updates++
				}
			}
			patches := m.Stats().TablePatches
			if patches == 0 {
				t.Fatalf("%s: %d score updates produced no table patches", name, updates)
			}
			// Every update writes the Score-table row of an existing document
			// with a same-length value, so at minimum the loop's second and
			// later rounds must patch (the ListScore/ListChunk first-touch
			// rows insert once, then patch too).
			if patches < uint64(updates)/2 {
				t.Errorf("%s: only %d of %d updates patched in place", name, patches, updates)
			}

			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 3})
			if err != nil {
				t.Fatalf("TopK after patched updates: %v", err)
			}
			o := newOracle(corpus)
			checkTopKScores(t, name+" after patched updates", res.Results, o.topK([]string{"golden", "gate"}, 3, false))
		})
	}
}

// TestApplyUpdatesBatchHitsPatchPath is the batched analogue: a score-only
// ApplyUpdates batch flushes through UpsertBatch's replace-only patch runs.
func TestApplyUpdatesBatchHitsPatchPath(t *testing.T) {
	for name, ctor := range allConstructors() {
		t.Run(name, func(t *testing.T) {
			corpus := smallCorpus()
			m := buildMethod(t, name, ctor, corpus)

			var batch []Update
			for r := 0; r < 4; r++ {
				for _, doc := range corpus.order {
					newScore := corpus.scores[doc] * 1.02
					corpus.scores[doc] = newScore
					batch = append(batch, Update{Op: ScoreOp, Doc: doc, Score: newScore})
				}
			}
			if err := m.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			if m.Stats().TablePatches == 0 {
				t.Fatalf("%s: batched score updates produced no table patches", name)
			}

			res, err := m.TopK(Query{Terms: []string{"golden", "gate"}, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(corpus)
			checkTopKScores(t, name+" after batched patches", res.Results, o.topK([]string{"golden", "gate"}, 3, false))
		})
	}
}
