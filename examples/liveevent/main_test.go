package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainPrints runs the program as its users do and checks one line of
// what it prints.
func TestMainPrints(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	main()
	w.Close()
	const want = "source S (capacity D=3)"
	if got := <-out; !strings.Contains(got, want+"\n") {
		t.Errorf("output lacks the line %q:\n%s", want, got)
	}
}
