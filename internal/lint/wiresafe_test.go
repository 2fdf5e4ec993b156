package lint

import "testing"

// TestWireSafeCorpus pins the wiresafe analyzer's full output: Env.Send
// payloads without a codec for exactly the type sent flagged, including an
// unregistered *T sent beside a registered T, also when *T is a
// transport.Recycler; registered payloads and a suppressed send untouched.
// The shape rules it once also checked are the codec's, pinned by
// wire/codec's TestDeriveRejectsWhatNoCodecCarries.
func TestWireSafeCorpus(t *testing.T) {
	RunExpectTest(t, "testdata/src/wiresafe", WireSafe)
}
