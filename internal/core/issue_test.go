package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortForIssueMatchesLegacyOrder checks sortForIssue against the
// legacy selection order it replaces — candidates sorted into dispatch
// order, then slices.SortFunc by age alone, never skipped — on random
// candidate sets of 0 to 40 uops with heavy age ties, in random input
// order, a quarter of them already in dispatch order.
func TestSortForIssueMatchesLegacyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(41)
		ages := 1 + rng.Intn(n/3+1) // few distinct ages: many ties
		us := make([]*uop, n)
		for i, seq := range rng.Perm(n) {
			us[i] = &uop{dispSeq: uint64(100 + 3*seq), age: uint64(rng.Intn(ages))}
		}
		rng.Shuffle(n, func(i, j int) { us[i], us[j] = us[j], us[i] })
		if rng.Intn(4) == 0 {
			// The event path often sees a set already in dispatch order.
			slices.SortFunc(us, func(a, b *uop) int { return int(a.dispSeq) - int(b.dispSeq) })
		}

		want := slices.Clone(us)
		slices.SortFunc(want, func(a, b *uop) int {
			if a.dispSeq < b.dispSeq {
				return -1
			}
			return 1
		})
		slices.SortFunc(want, func(a, b *uop) int {
			if a.age < b.age {
				return -1
			}
			if a.age > b.age {
				return 1
			}
			return 0
		})
		got := slices.Clone(us)
		sortForIssue(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): order differs\ngot  %v\nwant %v", trial, n, keys(got), keys(want))
		}
	}
}

func keys(us []*uop) [][2]uint64 {
	k := make([][2]uint64, len(us))
	for i, u := range us {
		k[i] = [2]uint64{u.age, u.dispSeq}
	}
	return k
}
