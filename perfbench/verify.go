package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"jvmgc/internal/labd"
)

// reference produces the bytes an in-process labd.Server returns for a
// spec: the ground truth every daemon response is compared with.
type reference struct{ srv *labd.Server }

func newReference() (*reference, error) {
	srv, err := labd.New(labd.Config{})
	if err != nil {
		return nil, err
	}
	return &reference{srv}, nil
}

func (r *reference) bytes(spec labd.JobSpec) ([]byte, error) {
	j, err := r.srv.Submit(labd.SubmitRequest{Job: spec})
	if err != nil {
		return nil, err
	}
	<-j.Done()
	return j.Result()
}

func (r *reference) close() { _ = r.srv.Drain(context.Background()) }

// seenBody is the first body served for a spec whose reference is
// computed after the load, and how many responses matched it.
type seenBody struct {
	sum [32]byte
	n   int
}

// verifier checks every response body against the reference bytes for
// its spec. Specs with a precomputed reference compare bytes in place;
// the rest are hashed, and settle compares them after the load, so a
// large universe never costs reference simulations while timing runs.
type verifier struct {
	specs []labd.JobSpec
	known [][]byte // by spec index; read-only while requests run

	mu   sync.Mutex
	seen map[int32]*seenBody
}

func newVerifier(specs []labd.JobSpec) *verifier {
	return &verifier{specs: specs, known: make([][]byte, len(specs)), seen: make(map[int32]*seenBody)}
}

// precompute fills in the reference bytes of every spec up front.
func (v *verifier) precompute(ref *reference) error {
	for i, s := range v.specs {
		b, err := ref.bytes(s)
		if err != nil {
			return fmt.Errorf("reference for spec %d: %w", i, err)
		}
		v.known[i] = b
	}
	return nil
}

// check reports whether body can be the reference for spec idx. A body
// checked only by hash passes here when it matches earlier responses for
// the spec; settle decides whether they all match the reference.
func (v *verifier) check(idx int32, body []byte) bool {
	if ref := v.known[idx]; ref != nil {
		return bytes.Equal(ref, body)
	}
	sum := sha256.Sum256(body)
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.seen[idx]
	if !ok {
		v.seen[idx] = &seenBody{sum: sum, n: 1}
		return true
	}
	if s.sum != sum {
		return false
	}
	s.n++
	return true
}

// settle computes the reference of every spec checked by hash, on
// workers goroutines, and returns how many responses did not match it.
func (v *verifier) settle(ref *reference, workers int) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	idx := make(chan int32)
	type outcome struct {
		bad int
		err error
	}
	out := make(chan outcome, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var o outcome
			for i := range idx {
				b, err := ref.bytes(v.specs[i])
				if err != nil {
					o.err = fmt.Errorf("reference for spec %d: %w", i, err)
					continue
				}
				if s := v.seen[i]; sha256.Sum256(b) != s.sum {
					o.bad += s.n
				}
			}
			out <- o
		}()
	}
	for i := range v.seen {
		idx <- i
	}
	close(idx)
	bad := 0
	var err error
	for w := 0; w < workers; w++ {
		o := <-out
		bad += o.bad
		if err == nil {
			err = o.err
		}
	}
	v.seen = make(map[int32]*seenBody)
	return bad, err
}
