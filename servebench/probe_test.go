package main

import "testing"

// TestHostProbe checks that the probe samples, and that close ends its
// echo goroutine (close waits for it, so a leak would hang the test).
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		d, err := p.sample()
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("sample took %v", d)
		}
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sample(); err == nil {
		t.Fatal("sample after close succeeded")
	}
}
