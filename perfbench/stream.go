package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"repro/internal/planapi"
)

// The plan-serve request stream: a Zipf-shaped mix over a fixed universe
// of planning shapes, so a few shapes are asked for often (cache hits) and
// a long tail rarely (cold DES evaluations).

const (
	// zipfS is the Zipf exponent of the mix.
	zipfS = 1.1
	// streamLen is the number of requests one pass replays: 60 samples
	// lie beyond each pass's 99th percentile, and a run pools several
	// passes.
	streamLen = 6000
	// popularitySeed fixes which shapes are popular: a permutation of the
	// universe onto Zipf ranks that every stream shares. Popularity is a
	// property of the workload (the jobs a cluster runs most), not of the
	// seed.
	popularitySeed = 20010423
)

// universe returns the distinct request shapes, in a fixed order: I=J in
// {8, 12, ..., 64}, K in {1024, 2048, ..., 16384}, a 2x2 or 4x4 processor
// grid, and both schedules — 960 shapes.
func universe() []planapi.PlanRequest {
	var out []planapi.PlanRequest
	for ij := int64(8); ij <= 64; ij += 4 {
		for k := int64(1024); k <= 16384; k += 1024 {
			for _, p := range []int64{2, 4} {
				for _, mode := range []string{"overlapped", "blocking"} {
					out = append(out, planapi.PlanRequest{
						Version: planapi.Version,
						Space:   []int64{ij, ij, k},
						Procs:   []int64{p, p},
						Mode:    mode,
					})
				}
			}
		}
	}
	return out
}

// requestStream returns n requests for seed. Every stream holds each shape
// exactly as often as the Zipf mix expects (zipfCounts); the seed orders
// them. Drawing the shapes at random instead would let the seed decide
// how many expensive cold shapes a stream holds, and with them the tail
// latency.
func requestStream(seed int64, n int) []planapi.PlanRequest {
	u := universe()
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	out := make([]planapi.PlanRequest, 0, n)
	for rank, c := range zipfCounts(len(u), n) {
		for ; c > 0; c-- {
			out = append(out, u[rank])
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCounts apportions n requests over m popularity ranks in proportion
// to the Zipf weights (k+1)^-zipfS, rounding by largest remainder so the
// counts sum to n.
func zipfCounts(m, n int) []int {
	w := make([]float64, m)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		total += w[k]
	}
	counts := make([]int, m)
	rem := make([]int, m)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		w[k] = exact - float64(counts[k]) // reuse w for the remainders
		rem[k] = k
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, k := range rem[:left] {
		counts[k]++
	}
	return counts
}

// encodeStream renders each request as the JSON body a client sends.
func encodeStream(reqs []planapi.PlanRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// headShare is the share of requests that go to the most popular tenth
// of the universe.
func headShare(reqs []planapi.PlanRequest) float64 {
	counts := make(map[string]int)
	for _, q := range reqs {
		counts[q.Key()]++
	}
	freq := make([]int, 0, len(counts))
	for _, c := range counts {
		freq = append(freq, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freq)))
	total := 0
	for _, c := range freq[:min(len(freq), len(universe())/10)] {
		total += c
	}
	return float64(total) / float64(len(reqs))
}
