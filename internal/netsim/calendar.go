package netsim

import "math/bits"

// calendar files int32 entries under the cycle they come due, in a
// power-of-two number of slots, each an intrusive list linked through
// next (entry+1, 0 = none), so that nothing allocates. Calendars may
// share next when an entry is in one at a time. An entry due a round or
// more ahead comes up early; whoever takes its slot files it again.
type calendar struct{ slots, next []int32 }

// calendarSlots is the slot count that covers span cycles in one round.
func calendarSlots(span int64) int { return 1 << bits.Len64(uint64(span)) }

// file adds entry i to the slot of cycle at.
func (c *calendar) file(i int32, at int64) {
	s := &c.slots[at&int64(len(c.slots)-1)]
	c.next[i], *s = *s, i+1
}

// unlink takes entry i out of the slot of cycle at, where it was filed.
func (c *calendar) unlink(i int32, at int64) {
	link := &c.slots[at&int64(len(c.slots)-1)]
	for *link != i+1 {
		link = &c.next[*link-1]
	}
	*link, c.next[i] = c.next[i], 0
}

// take empties the slot of cycle at and returns its list for pop.
func (c *calendar) take(at int64) (list int32) {
	s := &c.slots[at&int64(len(c.slots)-1)]
	list, *s = *s, 0
	return list
}

// pop removes and returns the first entry of a taken list (-1: empty),
// which may be filed again at once.
func (c *calendar) pop(list *int32) int32 {
	i := *list - 1
	if i >= 0 {
		*list, c.next[i] = c.next[i], 0
	}
	return i
}

// waitSets records, for each inter-switch (channel, VC) pair ci, the
// input VCs of the channel's sending switch that wait for the pair, as
// a bitset: waiters[ci*words:][:words] holds bit pos[c]*VCs+vc for
// input VC (c, vc), where pos[c] is c's place in inChans. The pairs
// below sets are the inter-switch ones. VCT heads wait for credits,
// wormhole headers for a free slot.
type waitSets struct {
	waiters []uint64
	pos     []int32
	words   int
	sets    int
}

// shapeWaitSets sizes the wait sets of fabric s; carve then takes their
// storage from the engine's tables.
func shapeWaitSets(s *Sim) waitSets {
	perSwitch := 0 // input VCs of the busiest switch
	for _, ins := range s.inChans {
		perSwitch = max(perSwitch, len(ins)*s.cfg.VCs)
	}
	return waitSets{words: (perSwitch + 63) / 64, sets: 2 * s.g.M() * s.cfg.VCs}
}

func (w *waitSets) carve(s *Sim, u64 *[]uint64, i32 *[]int32) {
	w.waiters, w.pos = carve(u64, w.sets*w.words), carve(i32, s.nChan)
	for _, ins := range s.inChans {
		for i, c := range ins {
			w.pos[c] = int32(i)
		}
	}
}

// add puts input VC vcIdx into the wait set of pair ci.
func (w *waitSets) add(ci, vcIdx, vcs int32) {
	bit := w.pos[vcIdx/vcs]*vcs + vcIdx%vcs
	w.waiters[int(ci)*w.words+int(bit>>6)] |= 1 << (bit & 63)
}

// popWaiter removes the lowest member of the wait set of pair ci and
// returns it as an input VC index, or -1 once the set is empty.
func (s *Sim) popWaiter(w *waitSets, ci int32) int32 {
	set := w.waiters[int(ci)*w.words:][:w.words]
	for i, word := range set {
		if word != 0 {
			set[i] = word & (word - 1)
			vcs := int32(s.cfg.VCs)
			b := int32(i<<6 + bits.TrailingZeros64(word))
			return s.inChans[s.chanDst[(ci/vcs)^1]][b/vcs]*vcs + b%vcs // the channel's sending switch
		}
	}
	return -1
}
