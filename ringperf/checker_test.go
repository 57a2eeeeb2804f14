package main

import (
	"strings"
	"testing"
)

// forged builds logs for 2 senders x n messages, alternating groups 0
// and 1, every subscriber delivering the same sequence.
func forged(subs, n int) ([]msgID, [][]msgID) {
	var sent []msgID
	for seq := 1; seq <= n; seq++ {
		for s := 0; s < 2; s++ {
			sent = append(sent, makeID(s, seq%2, uint64(seq)))
		}
	}
	logs := make([][]msgID, subs)
	for i := range logs {
		logs[i] = append([]msgID(nil), sent...)
	}
	return sent, logs
}

var twoRings = checkSpec{ringOf: []int{0, 1}, global: true}

func wantViolation(t *testing.T, rep checkReport, substr string) {
	t.Helper()
	for _, v := range rep.violations {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("no violation mentioning %q; got %q", substr, rep.violations)
}

func TestCheckerAcceptsCleanLogs(t *testing.T) {
	sent, logs := forged(3, 50)
	rep := checkDeliveries(twoRings, sent, logs)
	if len(rep.violations) != 0 || len(rep.missing) != 0 {
		t.Fatalf("clean logs flagged: %v, %d missing", rep.violations, len(rep.missing))
	}
}

func TestCheckerCatchesReorderAcrossSubscribers(t *testing.T) {
	sent, logs := forged(2, 50)
	// Swap two messages of different senders in one group at one
	// subscriber: FIFO per sender still holds, the group order does not.
	logs[1][10], logs[1][11] = logs[1][11], logs[1][10]
	rep := checkDeliveries(checkSpec{ringOf: []int{0, 1}}, sent, logs)
	wantViolation(t, rep, "order differs")
}

func TestCheckerCatchesGlobalReorder(t *testing.T) {
	// Two messages in different groups swapped: per-group order holds,
	// the merged global order does not.
	sent := []msgID{makeID(0, 0, 1), makeID(1, 1, 1)}
	logs := [][]msgID{{sent[0], sent[1]}, {sent[1], sent[0]}}
	rep := checkDeliveries(checkSpec{ringOf: []int{0, 1}}, sent, logs)
	if len(rep.violations) != 0 {
		t.Fatalf("per-group-only spec flagged a cross-group swap: %v", rep.violations)
	}
	rep = checkDeliveries(twoRings, sent, logs)
	wantViolation(t, rep, "global order differs")
}

func TestCheckerCatchesFIFOViolation(t *testing.T) {
	sent, logs := forged(2, 50)
	// Sender 0's #3 and #5 are both on group 1: deliver #5 first at every
	// subscriber, so all agree but FIFO breaks.
	for _, log := range logs {
		i3, i5 := indexOf(log, makeID(0, 1, 3)), indexOf(log, makeID(0, 1, 5))
		log[i3], log[i5] = log[i5], log[i3]
	}
	rep := checkDeliveries(twoRings, sent, logs)
	wantViolation(t, rep, "FIFO")
}

func TestCheckerCatchesDuplicate(t *testing.T) {
	sent, logs := forged(2, 20)
	logs[0] = append(logs[0], logs[0][4])
	rep := checkDeliveries(twoRings, sent, logs)
	wantViolation(t, rep, "twice")
}

func TestCheckerCatchesLossAndUnknown(t *testing.T) {
	sent, logs := forged(3, 20)
	lost := logs[2][7]
	logs[2] = append(logs[2][:7:7], logs[2][8:]...)
	rep := checkDeliveries(twoRings, sent, logs)
	if len(rep.violations) != 0 {
		t.Fatalf("a loss is a failed message, not a violation: %v", rep.violations)
	}
	if len(rep.missing) != 1 || rep.missing[lost] != 1 {
		t.Fatalf("missing = %v, want %v once", rep.missing, lost)
	}
	logs[1] = append(logs[1], makeID(0, 0, 999))
	wantViolation(t, checkDeliveries(twoRings, sent, logs), "never sent")
}

func indexOf(log []msgID, id msgID) int {
	for i, x := range log {
		if x == id {
			return i
		}
	}
	return -1
}
