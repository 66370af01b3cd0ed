//go:build unix

package sweep

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the user and system CPU time this process has used.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
