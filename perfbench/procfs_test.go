package main

import (
	"os"
	"testing"
)

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("1234567890 5000 42\n")
	if err != nil || got != 1234567890 {
		t.Errorf("parseSchedstat = %v, %v; want 1234567890 ns", got, err)
	}
	for _, bad := range []string{"", "12 34", "x 1 2", "1 2 3 4"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tgclabd\nVmPeak:\t 1300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("VmHWM = %v MB, want 50", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestReadersOnThisProcess(t *testing.T) {
	// Burn some CPU so the thread sum is visibly nonzero.
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i ^ x
	}
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Errorf("procCPU = %v, %v (%d)", cpu, err, x)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("procPeakRSS = %v, %v", rss, err)
	}
}
