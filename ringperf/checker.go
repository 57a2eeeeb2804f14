package main

import "fmt"

// msgID names one benchmark message: sender index, group index and the
// sender's own sequence number (from 1).
type msgID uint64

func makeID(sender, group int, seq uint64) msgID {
	return msgID(uint64(sender)<<56 | uint64(group)<<48 | seq&(1<<48-1))
}

func (id msgID) sender() int { return int(id >> 56) }
func (id msgID) group() int  { return int(id >> 48 & 0xff) }
func (id msgID) seq() uint64 { return uint64(id) & (1<<48 - 1) }

func (id msgID) String() string {
	return fmt.Sprintf("s%d/g%d/#%d", id.sender(), id.group(), id.seq())
}

// checkSpec says what the delivery logs must satisfy. Every subscriber
// subscribes to every group.
type checkSpec struct {
	// ringOf maps a group index to the ring that orders it.
	ringOf []int
	// global asks for one delivery order across all groups (cross-ring
	// merge), not only one per group.
	global bool
}

// checkReport is the checker's verdict. Violations fail the whole run;
// missing messages are counted failures of single messages.
type checkReport struct {
	violations []string
	// missing[id] is how many subscribers never delivered id.
	missing map[msgID]int
}

const maxViolations = 8

func (r *checkReport) violate(format string, args ...any) {
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// checkDeliveries checks the per-subscriber delivery logs against the
// set of messages sent:
//   - no subscriber delivers a message twice or one nobody sent;
//   - every subscriber delivers each group's messages in the same order
//     (and, with spec.global, all messages in the same order);
//   - each subscriber delivers one sender's messages on one ring in the
//     order they were sent (FIFO);
//   - every sent message reaches every subscriber; a miss is counted per
//     message in the report, not a violation.
func checkDeliveries(spec checkSpec, sent []msgID, logs [][]msgID) checkReport {
	rep := checkReport{missing: make(map[msgID]int)}
	known := make(map[msgID]bool, len(sent))
	for _, id := range sent {
		known[id] = true
	}
	seen := make([]map[msgID]bool, len(logs))
	for s, log := range logs {
		seen[s] = make(map[msgID]bool, len(log))
		type fifoKey struct{ sender, ring int }
		last := make(map[fifoKey]uint64)
		for _, id := range log {
			if !known[id] {
				rep.violate("subscriber %d delivered %v, which was never sent", s, id)
				continue
			}
			if seen[s][id] {
				rep.violate("subscriber %d delivered %v twice", s, id)
				continue
			}
			seen[s][id] = true
			if id.group() >= len(spec.ringOf) {
				rep.violate("subscriber %d delivered %v to an unknown group", s, id)
				continue
			}
			k := fifoKey{id.sender(), spec.ringOf[id.group()]}
			if id.seq() <= last[k] {
				rep.violate("subscriber %d delivered %v after #%d of the same sender on ring %d (FIFO)",
					s, id, last[k], k.ring)
			}
			last[k] = id.seq()
		}
	}
	for _, id := range sent {
		for s := range logs {
			if !seen[s][id] {
				rep.missing[id]++
			}
		}
	}

	// Order: compare each subscriber's sequence against subscriber 0's,
	// restricted to messages both delivered.
	inAll := func(id msgID) bool { return rep.missing[id] == 0 }
	orderOf := func(log []msgID, keep func(msgID) bool) []msgID {
		var out []msgID
		for _, id := range log {
			if known[id] && inAll(id) && keep(id) {
				out = append(out, id)
			}
		}
		return out
	}
	compare := func(what string, keep func(msgID) bool) {
		ref := dedupe(orderOf(logs[0], keep))
		for s := 1; s < len(logs); s++ {
			got := dedupe(orderOf(logs[s], keep))
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					var g msgID
					if i < len(got) {
						g = got[i]
					}
					rep.violate("%s order differs: position %d is %v at subscriber 0 but %v at subscriber %d",
						what, i, ref[i], g, s)
					break
				}
			}
		}
	}
	if len(logs) > 1 {
		for g := range spec.ringOf {
			g := g
			compare(fmt.Sprintf("group %d", g), func(id msgID) bool { return id.group() == g })
		}
		if spec.global {
			compare("global", func(msgID) bool { return true })
		}
	}
	return rep
}

// dedupe drops repeats of an id, keeping the first (duplicates are
// already reported; the order check then compares the rest).
func dedupe(ids []msgID) []msgID {
	seen := make(map[msgID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
