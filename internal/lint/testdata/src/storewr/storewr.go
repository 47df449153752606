// Package store mimics the artifact store's write path for the errflow
// suite: Close/Sync/Rename errors must be checked — a swallowed error can
// acknowledge a write that never reached the disk (DESIGN.md §11).
package store

import "os"

// PublishLeaky drops every error the crash-safety protocol depends on.
func PublishLeaky(tmp *os.File, final string) {
	tmp.Sync()                   // want "Sync error is discarded"
	tmp.Close()                  // want "Close error is discarded"
	os.Rename(tmp.Name(), final) // want "os.Rename error is discarded"
}

// PublishChecked is the §11 shape: every step's error is observed.
func PublishChecked(tmp *os.File, final string) error {
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), final)
}

// ReadCleanup discards a read-path Close explicitly: no data can be lost,
// and the blank assignment makes the discard reviewable.
func ReadCleanup(f *os.File) []byte {
	defer func() { _ = f.Close() }()
	buf := make([]byte, 16)
	f.Read(buf) // Read is outside errflow's name set
	return buf
}

// DeferredLeak defers a Close whose error nobody will see.
func DeferredLeak(f *os.File) {
	defer f.Close() // want "Close error is discarded"
	f.WriteString("x")
}
