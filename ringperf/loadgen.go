package main

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// clock reads monotonic nanoseconds since the start of a pass. Due
// times, send times and arrival times all share it, so latency is a
// plain subtraction.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// poissonSchedule returns the arrival offsets, in ns from the phase
// start, of a Poisson process of the given rate (messages per second)
// over [0, dur). The same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []int64 {
	if rate <= 0 {
		return nil
	}
	out := make([]int64, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(dur) {
			return out
		}
		out = append(out, int64(t))
	}
}

// runOpenLoop calls send(i) once for every entry of due, in order, and
// never before due[i] on clk: it sleeps until the next absolute due time
// and, when it wakes late, sends every overdue message at once instead
// of skipping any. It returns how late each call started, in ns. The
// schedule does not depend on how fast send returns, so a stall in the
// system under test shows as latency of the messages due during it.
func runOpenLoop(clk clock, due []int64, send func(i int)) []int64 {
	late := make([]int64, len(due))
	for i, d := range due {
		if w := d - clk.now(); w > 0 {
			time.Sleep(time.Duration(w))
		}
		late[i] = clk.now() - d
		send(i)
	}
	return late
}

// Payload layout. Every benchmark message carries its identity and its
// due time, so a subscriber can check order and time latency from the
// payload alone; the rest is seeded filler.
const (
	offDue    = 0  // int64 due time, ns on the pass clock
	offPhase  = 8  // phase the message belongs to
	offSender = 9  // sender index
	offGroup  = 10 // group index
	offSeq    = 12 // uint64 per-sender sequence, from 1
	stampLen  = 20
)

func stamp(p []byte, due int64, phase, sender, group int, seq uint64) {
	binary.BigEndian.PutUint64(p[offDue:], uint64(due))
	p[offPhase] = byte(phase)
	p[offSender] = byte(sender)
	p[offGroup] = byte(group)
	binary.BigEndian.PutUint64(p[offSeq:], seq)
}

// readStamp decodes a payload written by stamp; ok is false for a
// payload too short to carry one.
func readStamp(p []byte) (id msgID, due int64, phase int, ok bool) {
	if len(p) < stampLen {
		return 0, 0, 0, false
	}
	due = int64(binary.BigEndian.Uint64(p[offDue:]))
	id = makeID(int(p[offSender]), int(p[offGroup]), binary.BigEndian.Uint64(p[offSeq:]))
	return id, due, int(p[offPhase]), true
}
