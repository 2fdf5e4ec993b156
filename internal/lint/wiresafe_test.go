package lint

import "testing"

// TestWireSafeCorpus pins the wiresafe analyzer's full output: func,
// chan, unexported, all-unexported, and non-empty-interface fields of
// codec-registered types flagged (transitively); Env.Send payloads without
// a codec for exactly the type sent flagged; durable-store records without
// codec encoders flagged (and structurally walked); an unregistered *T sent
// beside a registered T flagged, also when *T is a transport.Recycler;
// self-marshalling types, empty-interface payload slots, registered payloads,
// certified records, a Recycler's own unexported fields, and unnamed codec
// prototypes untouched.
func TestWireSafeCorpus(t *testing.T) {
	RunExpectTest(t, "testdata/src/wiresafe", WireSafe)
}
