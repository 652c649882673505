package workload

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func TestDataDeterministic(t *testing.T) {
	a := Data(7, 1000)
	b := Data(7, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different data")
	}
	c := Data(8, 1000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestReaderMatchesData(t *testing.T) {
	want := Data(3, 10_000)
	got, err := io.ReadAll(NewReader(3, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reader stream differs from Data")
	}
}

func TestReaderChunkingIndependence(t *testing.T) {
	want := Data(5, 5000)
	r := NewReader(5, 5000)
	rng := rand.New(rand.NewSource(1))
	var got []byte
	buf := make([]byte, 700)
	for {
		n, err := r.Read(buf[:rng.Intn(len(buf))+1])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ragged reads changed the stream")
	}
}
