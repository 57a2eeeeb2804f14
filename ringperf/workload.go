package main

import (
	"fmt"
	"sort"
	"strings"

	"accelring/internal/evs"
	"accelring/internal/shard"
)

// workload is one traffic mix over one arrangement of the system.
type workload struct {
	name string
	// library runs three facade Nodes instead of daemons with client
	// sessions.
	library bool
	rings   int
	pack    bool
	payload int
	service evs.Service
	groups  []string
	// ringOf is the ring that orders each group.
	ringOf []int
	// loadRate is the open-loop load phase's total rate (msg/s), about
	// 40% of what the capacity phase measures on a 2-core host.
	loadRate float64
	// window is each sender's closed-loop window in the capacity phase:
	// messages sent but not yet delivered to every subscriber.
	window int
}

// lightRate is the light phase's total rate (msg/s): low enough that
// every message meets an idle ring, so latency is structural (token
// rotation, pack hold, skip pacing).
const lightRate = 200

var workloads = []*workload{
	{
		name: "daemon-agreed-1350", rings: 1, payload: 1350, service: evs.Agreed,
		groups: []string{"perf"}, loadRate: 6000, window: 256,
	},
	{
		name: "daemon-xring-100", rings: 2, pack: true, payload: 100, service: evs.Agreed,
		groups: crossRingGroups(2), loadRate: 15000, window: 1024,
	},
	{
		name: "library-safe-1350", library: true, rings: 1, payload: 1350, service: evs.Safe,
		groups: []string{"perf"}, loadRate: 8000, window: 256,
	},
}

func init() {
	for _, wl := range workloads {
		for _, g := range wl.groups {
			wl.ringOf = append(wl.ringOf, shard.RingOf(g, wl.rings))
		}
	}
}

// crossRingGroups returns the first group names ("x0", "x1", ...) that
// hash to pairwise different rings, one per ring.
func crossRingGroups(rings int) []string {
	var out []string
	used := make(map[int]bool)
	for i := 0; len(out) < rings; i++ {
		g := fmt.Sprintf("x%d", i)
		if r := shard.RingOf(g, rings); !used[r] {
			used[r] = true
			out = append(out, g)
		}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
