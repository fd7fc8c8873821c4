package main

import (
	"sort"
	"time"
)

// The suite runs on a few virtual CPUs of a shared host. A neighbour on
// the same core slows a run by a third or more for seconds at a time,
// and nothing inside the VM says when. It only ever slows: so a run is
// cut into windows, and the end-to-end figures are taken over the
// faster half of them. A run that was disturbed for less than half its
// length then reads as an undisturbed one does.
const runWindows = 16

// window is a stretch of a run: how long it lasted and the latency of
// every operation completed in it.
type window struct {
	wall time.Duration
	lat  samples
}

func (w window) rate() float64 { return float64(len(w.lat)) / w.wall.Seconds() }

// windowsOf cuts a pass into runWindows windows of equal operation
// counts, in completion order. Schedules are built of blocks of fixed
// composition, so equal counts are equal mixes. A pass too short to
// fill the windows is one window.
func windowsOf(ss []opSample) []window {
	byEnd := append([]opSample(nil), ss...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
	n := runWindows
	if len(byEnd) < 2*runWindows {
		n = 1
	}
	ws := make([]window, 0, n)
	var prev time.Duration
	for i := 0; i < n; i++ {
		part := byEnd[i*len(byEnd)/n : (i+1)*len(byEnd)/n]
		if len(part) == 0 {
			continue
		}
		w := window{wall: part[len(part)-1].end - prev}
		prev = part[len(part)-1].end
		for _, s := range part {
			w.lat = append(w.lat, s.latency)
		}
		ws = append(ws, w)
	}
	return ws
}

// quietHalf pools the faster half of the windows: the operations per
// second over their summed time, and their latencies, sorted.
func quietHalf(ws []window) (opsPerS float64, lat samples) {
	if len(ws) == 0 {
		return 0, nil
	}
	byRate := append([]window(nil), ws...)
	sort.SliceStable(byRate, func(i, j int) bool { return byRate[i].rate() > byRate[j].rate() })
	byRate = byRate[:(len(byRate)+1)/2]
	var wall time.Duration
	for _, w := range byRate {
		wall += w.wall
		lat = append(lat, w.lat...)
	}
	return float64(len(lat)) / wall.Seconds(), lat.sorted()
}
