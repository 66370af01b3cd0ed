package deadcode

import "testing"

func TestOracle(t *testing.T) {
	if OnlyFromTest()+len(onlyFromTestToo()) != KeptOracle()-6 {
		t.Fatal("mismatch")
	}
	KeptFake()
}
