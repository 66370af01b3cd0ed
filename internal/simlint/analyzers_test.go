package simlint_test

import (
	"testing"

	"cachewrite/internal/simlint"
	"cachewrite/internal/simlint/simlinttest"
)

func TestNoPanic(t *testing.T) {
	simlinttest.Run(t, simlint.NoPanic, "nopanic")
}

func TestHotpath(t *testing.T) {
	// hotpathdep is loaded first so the app package can import it and
	// so the dep's //simlint:hotpath facts are collected before the
	// app's hot roots are walked.
	simlinttest.Run(t, simlint.Hotpath, "hotpathdep", "hotpath")
}

func TestSentinelErr(t *testing.T) {
	simlinttest.Run(t, simlint.SentinelErr, "sentinelerr")
}

func TestDeterminism(t *testing.T) {
	simlinttest.Run(t, simlint.Determinism, "determinism")
}

func TestCtxLoop(t *testing.T) {
	simlinttest.Run(t, simlint.CtxLoop, "ctxloop")
}

func TestVFSOnly(t *testing.T) {
	simlinttest.Run(t, simlint.VFSOnly, "vfsonly")
}

func TestLockHeld(t *testing.T) {
	// vfs and blockdep are loaded first so the app package can import
	// them; blockdep seeds the cross-package blocking fact.
	simlinttest.Run(t, simlint.LockHeld, "vfs", "blockdep", "lockheld")
}

func TestErrFlow(t *testing.T) {
	simlinttest.Run(t, simlint.ErrFlow, "vfs", "errflow")
}

func TestStatSound(t *testing.T) {
	simlinttest.Run(t, simlint.StatSound, "statsound")
}

func TestDeadCode(t *testing.T) {
	// deadcodemain is a command importing deadcode; the nested module
	// under deadcode/nested is found by walking the packages' common
	// directory.
	simlinttest.Run(t, simlint.DeadCode, "deadcode", "deadcodemain")
}
