package main

import "math"

// hist is a latency histogram with buckets 1% wide, from 0.1 µs to over
// 10^6 ms. Sessions record into it instead of keeping every sample, so the
// benchmark's own memory stays fixed however many sessions a run closes:
// a growing sample store would raise the collector's heap goal as the run
// went on and speed the measured program up.
type hist struct {
	counts [histBuckets]uint32
	n      int
	sum    float64
}

const (
	histMin     = 1e-4 // ms
	histGrowth  = 1.01
	histBuckets = 2400
)

var logGrowth = math.Log(histGrowth)

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sum += ms
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile finds the bucket holding rank q·(n−1) and interpolates within
// it by the rank's position among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo := histMin * math.Pow(histGrowth, float64(i))
			return lo + (lo*histGrowth-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}
