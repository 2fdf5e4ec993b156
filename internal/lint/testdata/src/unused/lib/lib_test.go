package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	_ = Config{Debug: true}
	if OnlyTested() != 0 {
		t.Fatal("ping(3) is 0")
	}
}
