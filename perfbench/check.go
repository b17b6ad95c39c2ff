package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// refDigestsFile holds the committed per-cell digests of every workload
// for the default seed and one held-out seed.
const refDigestsFile = "refdigests.json"

//go:embed refdigests.json
var refDigestsJSON []byte

// refCell is one committed cell digest.
type refCell struct {
	Cell   string `json:"cell"`
	Digest string `json:"digest"`
}

// refDigests maps workload -> seed (decimal) -> cell digests in cell order.
type refDigests map[string]map[string][]refCell

func loadRefDigests(data []byte) (refDigests, error) {
	var refs refDigests
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", refDigestsFile, err)
	}
	return refs, nil
}

func (r refDigests) lookup(workload string, seed uint64) ([]refCell, bool) {
	cells, ok := r[workload][strconv.FormatUint(seed, 10)]
	return cells, ok
}

// refOf turns a pass's outputs into reference digests.
func refOf(outs []cellOut) []refCell {
	ref := make([]refCell, len(outs))
	for i, o := range outs {
		ref[i] = refCell{Cell: o.Label, Digest: o.Digest}
	}
	return ref
}

// verdicts returns, per cell, why it failed: its own check, or a digest
// (or cell label) that differs from the reference. "" means it passed.
func verdicts(outs []cellOut, ref []refCell) []string {
	v := make([]string, len(outs))
	for i, o := range outs {
		switch {
		case o.Fail != "":
			v[i] = o.Fail
		case len(ref) != len(outs):
			v[i] = fmt.Sprintf("reference lists %d cells, workload has %d", len(ref), len(outs))
		case ref[i].Cell != o.Label:
			v[i] = fmt.Sprintf("reference cell %d is %q", i, ref[i].Cell)
		case ref[i].Digest != o.Digest:
			v[i] = fmt.Sprintf("digest %s, reference %s", o.Digest, ref[i].Digest)
		}
	}
	return v
}
