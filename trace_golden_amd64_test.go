//go:build amd64

package totoro

import (
	"encoding/json"
	"hash/fnv"
	"testing"
	"time"
)

// goldenTraces pins what the trace rings read back after a whole chaos run:
// an FNV-64a hash over the JSON of the merged timeline of the nine-phase
// schedule on fleet seed 229 (the seed CI's nemesis replay runs), and over
// the text of seed 1's invariant violation, trace-tail excerpt included.
// They were recorded before trace events were stored as pointer-free
// records and must never be re-recorded: the storage may change, what
// TraceEvents, MergedTrace, the /trace endpoint and a violation report show
// may not.
var goldenTraces = map[string]uint64{
	"merged-229":    0xea0373c2f69f299f,
	"violation-001": 0xd579cd0ccd46ca6d,
}

func TestTracesAreGolden(t *testing.T) {
	got := map[string]uint64{}

	c, id, _, _ := startChaos(t, 229, chaosSpec, chaosRounds)
	c.TrainUntil(c.Net.Now()+10*time.Minute, id)
	trace := c.Net.MergedTrace()
	if len(trace) == 0 {
		t.Fatal("the chaos run recorded no trace events")
	}
	js, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	got["merged-229"] = h.Sum64()

	c, id, _, _ = startChaos(t, 1, chaosSpec, chaosRounds)
	c.TrainUntil(c.Net.Now()+10*time.Minute, id)
	v := c.Net.Violation()
	if v == nil || len(v.Trace) == 0 {
		t.Fatalf("seed 1: want a violation with a trace excerpt, got %v", v)
	}
	h = fnv.New64a()
	h.Write([]byte(v.Error()))
	got["violation-001"] = h.Sum64()

	for name, want := range goldenTraces {
		if got[name] != want {
			t.Errorf("%s: trace hash %#016x, recorded %#016x", name, got[name], want)
		}
	}
}
