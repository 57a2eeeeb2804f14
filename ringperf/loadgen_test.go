package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 5000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 5000, time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 5000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatal("different seeds gave the same schedule")
	}
	// 5000 arrivals expected; a Poisson count has sd ~71.
	if n := float64(len(a)); math.Abs(n-5000) > 400 {
		t.Fatalf("got %v arrivals in 1s at 5000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= int64(time.Second) {
			t.Fatalf("arrival %d out of order or range: %d", i, a[i])
		}
	}
}

// TestOpenLoopIssuesExactSchedule pins the generator's contract: every
// scheduled message is sent exactly once, in order, never early, and
// lateness is reported per message — including a stall in send, which
// must delay later messages rather than drop them.
func TestOpenLoopIssuesExactSchedule(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 4000, 300*time.Millisecond)
	clk := newClock()
	var calls []int
	var at []int64
	late := runOpenLoop(clk, due, func(i int) {
		calls = append(calls, i)
		at = append(at, clk.now())
		if i == len(due)/2 {
			time.Sleep(20 * time.Millisecond) // a stall in the system under test
		}
	})
	if len(calls) != len(due) || len(late) != len(due) {
		t.Fatalf("issued %d of %d scheduled messages", len(calls), len(due))
	}
	for k, i := range calls {
		if i != k {
			t.Fatalf("call %d sent message %d", k, i)
		}
		if at[k] < due[k] {
			t.Fatalf("message %d sent %dns early", k, due[k]-at[k])
		}
		if late[k] < 0 {
			t.Fatalf("message %d reported negative lateness", k)
		}
	}
	if late[len(due)/2+1] < int64(10*time.Millisecond) {
		t.Fatalf("message after a 20ms stall reported only %v late", time.Duration(late[len(due)/2+1]))
	}
}

func TestStampRoundTrip(t *testing.T) {
	p := make([]byte, 100)
	stamp(p, 123456789, phaseIndex(3, kindLoad), 1, 1, 42)
	id, due, phase, ok := readStamp(p)
	if !ok || due != 123456789 || phase != phaseIndex(3, kindLoad) || id != makeID(1, 1, 42) {
		t.Fatalf("round trip gave %v %d %d %v", id, due, phase, ok)
	}
	if _, _, _, ok := readStamp(p[:stampLen-1]); ok {
		t.Fatal("short payload decoded")
	}
}
