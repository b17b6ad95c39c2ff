package core

import "fmt"

// This file implements the paper's claim that DSN admits a *custom
// routing implementation with simple, small switch-local logic* (Sections
// I and IV): a DSN switch can choose the next hop knowing only
//
//	(its own ID, the packet's destination, the class of the channel the
//	 packet arrived on)
//
// The arrival class encodes the routing phase — exactly the information a
// real router derives from the input virtual channel — so no per-packet
// route state and no O(n) forwarding tables are needed.
//
// Notably, this works only for the DSN-E/DSN-V variants: in the basic
// topology the Pred channel is shared between PRE-WORK and FINISH (and
// Succ between MAIN and FINISH), and there exist (switch, destination)
// pairs where the two phases demand different next hops — the same
// channel sharing that makes the basic routing deadlock-prone (Section
// V.A) also makes it ambiguous for stateless switches. The dedicated Up,
// Extra and finishing channels resolve both problems at once.

// ClassInjection is the pseudo arrival class of a packet at its source
// switch.
const ClassInjection LinkClass = 255

// LocalDecision is the output of one switch-local routing step.
type LocalDecision struct {
	Eject bool      // the packet has arrived; deliver it
	Next  int       // next switch (when !Eject)
	Class LinkClass // channel class to use for the hop
	Phase Phase     // routing phase of the hop (diagnostic)
}

// NextHopLocal computes the next hop for a packet at switch u heading to
// t, given the class of the channel it arrived on. It inspects only
// constant-size local state: u's level, u's shortcut target, the ring
// distance to t, and the topology constants (n, p, x). It requires a
// DSN-E or DSN-V instance; see the file comment for why the basic
// variant cannot support stateless switches.
func (d *DSN) NextHopLocal(u, t int, in LinkClass) (LocalDecision, error) {
	if d.Variant != VariantE && d.Variant != VariantV {
		return LocalDecision{}, fmt.Errorf("core: switch-local routing needs DSN-E or DSN-V; %v shares channels between phases", d.Variant)
	}
	if u < 0 || u >= d.N || t < 0 || t >= d.N {
		return LocalDecision{}, fmt.Errorf("core: local routing endpoints (%d,%d) out of range [0,%d)", u, t, d.N)
	}
	if u == t {
		return LocalDecision{Eject: true}, nil
	}
	var phase Phase
	switch in {
	case ClassInjection, ClassUp:
		phase = PhasePreWork
	case ClassSucc, ClassShortcut:
		phase = PhaseMain
	case ClassPred, ClassExtraPred, ClassFinishSucc, ClassExtraSucc:
		phase = PhaseFinish
	default:
		return LocalDecision{}, fmt.Errorf("core: unknown arrival class %v", in)
	}
	h, _ := d.NextHop(u, t, Hop{Class: in, Phase: phase})
	return LocalDecision{Next: int(h.To), Class: h.Class, Phase: h.Phase}, nil
}

// RouteLocal routes s -> t by iterating the switch-local logic, exactly
// as a network of independent stateless switches would. The package tests
// prove it hop-for-hop equivalent to the reference Route implementation.
func (d *DSN) RouteLocal(s, t int) (*Route, error) {
	if s < 0 || s >= d.N || t < 0 || t >= d.N {
		return nil, fmt.Errorf("core: route endpoints (%d,%d) out of range [0,%d)", s, t, d.N)
	}
	r := &Route{Src: s, Dst: t}
	u := s
	in := ClassInjection
	budget := 20*d.P + 2*d.N + 16
	for budget > 0 {
		budget--
		dec, err := d.NextHopLocal(u, t, in)
		if err != nil {
			return nil, err
		}
		if dec.Eject {
			return r, nil
		}
		r.Hops = append(r.Hops, Hop{From: int32(u), To: int32(dec.Next), Class: dec.Class, Phase: dec.Phase})
		r.PhaseHops[dec.Phase]++
		u = dec.Next
		in = dec.Class
	}
	return nil, fmt.Errorf("core: %v local routing %d->%d did not converge", d, s, t)
}
