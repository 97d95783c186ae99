package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func benchHeap(b *testing.B, frames int) *HeapFile {
	b.Helper()
	dir, err := os.MkdirTemp("", "heapbench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	h, err := OpenHeapFile(filepath.Join(dir, "b.tbl"), frames)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { h.Close() })
	return h
}

func BenchmarkHeapInsert(b *testing.B) {
	h := benchHeap(b, 64)
	rec := []byte("a-typical-row-of-roughly-fifty-bytes-of-payload!!")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h := benchHeap(b, 64)
	for i := 0; i < 10_000; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := h.NewScanner()
		n := 0
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		sc.Close()
		if n != 10_000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

func BenchmarkHeapScanColdPool(b *testing.B) {
	// A 2-frame pool forces an eviction per page: measures raw page I/O
	// through the pool.
	h := benchHeap(b, 2)
	for i := 0; i < 10_000; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := h.NewScanner()
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		sc.Close()
	}
}
