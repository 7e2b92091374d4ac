package journal

import (
	"os"
	"testing"
)

// SkipSync turns the cut's fsyncs into no-ops for the rest of the test.
func SkipSync(t testing.TB) {
	saved := durable
	durable = func(*os.File, string) error { return nil }
	t.Cleanup(func() { durable = saved })
}
