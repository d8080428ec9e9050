package jvmgc

import (
	"testing"

	"jvmgc/internal/cassandra"
)

func TestClientServerReplayIsSequential(t *testing.T) {
	// A clientserver job occupies one gclabd scheduler worker; its replay
	// must not fan out further, or -workers would no longer bound the
	// daemon's CPU.
	for _, w := range []byte{0, 'A', 'B', 'C', 'D', 'E', 'F'} {
		txn, err := clientServerTransactions(ClientServerOptions{Workload: w, Seed: 3}, cassandra.Result{})
		if err != nil {
			t.Fatal(err)
		}
		if txn.Workers != 1 {
			t.Errorf("workload %q: replay workers = %d, want 1", w, txn.Workers)
		}
	}
}
