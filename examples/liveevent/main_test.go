package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMainPrints runs the program as its users do and holds everything it
// prints to testdata/stdout.txt (rewrite it with `go run . > testdata/stdout.txt`
// when a change to the output is intended).
func TestMainPrints(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	w.Close()
	got := <-out
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("stdout line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("stdout has %d lines, want %d:\n%s", len(gl), len(wl), got)
	}
}
