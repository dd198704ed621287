package federate

import "testing"

// TestHashKeyDeterministic pins HashKey to 32-bit FNV-1a: every client and
// server must compute the same ring positions, across releases too.
func TestHashKeyDeterministic(t *testing.T) {
	for _, c := range []struct {
		key  string
		want uint32
	}{
		{"", 0x811c9dc5},
		{"a", 0xe40c292c},
		{"foobar", 0xbf9cf968},
	} {
		if got := HashKey(c.key); got != c.want {
			t.Errorf("HashKey(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
	if HashKey("x") == HashKey("y") {
		t.Error("suspicious collision between distinct short keys")
	}
}
