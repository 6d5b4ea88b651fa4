// Package crashfs is an in-memory vfs.FS that models what a real filesystem
// guarantees across a crash — and injects failures to prove the durability
// layer honours exactly those guarantees.
//
// Every file tracks two byte ranges: what has been written, and what has been
// fsynced. Directory entries (creates, renames, removals) likewise stay
// volatile until the directory is synced. Crash() discards everything
// volatile, leaving only the durable image — the state a machine would find
// on disk after power loss.
//
// An injection point arms the filesystem to fail at the Nth mutating
// operation (write, sync, rename, ...). Depending on the mode the operation
// fails cleanly, applies a short prefix of the write, or tears the write into
// the volatile image; in every case the filesystem then enters the crashed
// state where all further operations fail with ErrCrashed, exactly as if the
// process had been killed. Tests then call Crash() and reopen the store on
// the surviving image.
package crashfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"idaax/internal/vfs"
)

// ErrCrashed is returned by every operation after the injection point fires.
var ErrCrashed = errors.New("crashfs: filesystem crashed")

// ErrInjected is returned by the operation the injection point fails.
var ErrInjected = errors.New("crashfs: injected fault")

// Mode selects what the armed operation does before the crash.
type Mode int

const (
	// Fail makes the Nth operation fail with no effect, then crash.
	Fail Mode = iota
	// ShortWrite applies roughly half of the Nth write durably-invisibly
	// (volatile), returns an error, then crashes. Non-write operations armed
	// with ShortWrite behave like Fail.
	ShortWrite
	// TornWrite applies a prefix of the Nth write to the volatile image and
	// crashes without returning control to the writer's error handling —
	// i.e. the write reports success but only part of it survives unsynced.
	// The crash state is entered on the NEXT operation, modelling a kill
	// between syscalls.
	TornWrite
)

func (m Mode) String() string {
	switch m {
	case Fail:
		return "fail"
	case ShortWrite:
		return "short"
	case TornWrite:
		return "torn"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

type memFile struct {
	written []byte // full volatile content
	synced  int    // prefix length guaranteed to survive a crash
}

type dirEntry struct {
	durable bool // survives a crash only if the parent dir was synced
}

// FS is the crash-injecting filesystem. The zero value is not usable; call
// New.
type FS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	entries map[string]*dirEntry // file name -> entry state
	removed map[string]*memFile  // durable content of files removed but not dir-synced

	ops     int64 // mutating operations performed
	armAt   int64 // fail when ops reaches this (0 = disarmed)
	armMode Mode
	crashed bool
	fired   bool
}

// New returns an empty, disarmed crash filesystem.
func New() *FS {
	return &FS{
		files:   make(map[string]*memFile),
		entries: make(map[string]*dirEntry),
		removed: make(map[string]*memFile),
	}
}

// Arm schedules a fault at the nth (1-based) mutating operation from now,
// with the given mode. Arming resets the operation counter.
func (f *FS) Arm(n int64, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.armAt = n
	f.armMode = mode
	f.fired = false
}

// Disarm clears any pending fault without clearing crash state.
func (f *FS) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armAt = 0
}

// Fired reports whether the armed fault has triggered.
func (f *FS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Ops returns how many mutating operations have run since the last Arm.
func (f *FS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// step advances the operation counter and reports what the current operation
// should do: proceed normally, fail (Fail/ShortWrite), or tear (TornWrite).
// It must be called with f.mu held.
func (f *FS) step() (mode Mode, inject bool, err error) {
	if f.crashed {
		return 0, false, ErrCrashed
	}
	f.ops++
	if f.armAt > 0 && f.ops == f.armAt && !f.fired {
		f.fired = true
		if f.armMode == TornWrite {
			// Tear now, crash on the next op.
			f.armAt = -1 // sentinel: crash next op
			return TornWrite, true, nil
		}
		f.crashed = true
		return f.armMode, true, nil
	}
	if f.armAt == -1 {
		f.crashed = true
		return 0, false, ErrCrashed
	}
	return 0, false, nil
}

// Crash discards all volatile state, leaving the durable image, and clears
// the crashed flag so the filesystem can be reopened.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Files whose directory entry never became durable vanish entirely.
	for name, e := range f.entries {
		if !e.durable {
			delete(f.files, name)
			delete(f.entries, name)
		}
	}
	// Removals that were not dir-synced come back with their durable bytes.
	for name, old := range f.removed {
		f.files[name] = old
		f.entries[name] = &dirEntry{durable: true}
	}
	f.removed = make(map[string]*memFile)
	// Surviving files keep only their synced prefix.
	for _, mf := range f.files {
		mf.written = mf.written[:mf.synced]
	}
	f.crashed = false
	f.armAt = 0
}

// DurableBytes returns the total bytes that would survive a crash right now.
func (f *FS) DurableBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for name, mf := range f.files {
		if f.entries[name] != nil && f.entries[name].durable {
			n += int64(mf.synced)
		}
	}
	return n
}

// --- vfs.FS implementation ---

type fileHandle struct {
	fs   *FS
	name string
}

func (f *FS) Create(name string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return nil, err
	} else if inject {
		return nil, fmt.Errorf("create %s: %w", name, ErrInjected)
	}
	name = path.Clean(name)
	prev := f.files[name]
	if e := f.entries[name]; e != nil && e.durable && prev != nil {
		// Truncating a durable file: until the new content is synced, a
		// crash may surface the old durable bytes.
		if _, pending := f.removed[name]; !pending {
			f.removed[name] = &memFile{written: append([]byte(nil), prev.written[:prev.synced]...), synced: prev.synced}
		}
	}
	f.files[name] = &memFile{}
	f.entries[name] = &dirEntry{}
	return &fileHandle{fs: f, name: name}, nil
}

func (h *fileHandle) Write(p []byte) (int, error) {
	f := h.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	mode, inject, err := f.step()
	if err != nil {
		return 0, err
	}
	mf := f.files[h.name]
	if mf == nil {
		return 0, fmt.Errorf("crashfs: write to removed file %s", h.name)
	}
	if inject {
		switch mode {
		case ShortWrite:
			n := len(p) / 2
			mf.written = append(mf.written, p[:n]...)
			return n, fmt.Errorf("write %s: %w", h.name, ErrInjected)
		case TornWrite:
			n := len(p) / 2
			if n == 0 && len(p) > 0 {
				n = len(p)
			}
			mf.written = append(mf.written, p[:n]...)
			// Report success; the crash happens before the rest lands.
			return len(p), nil
		default:
			return 0, fmt.Errorf("write %s: %w", h.name, ErrInjected)
		}
	}
	mf.written = append(mf.written, p...)
	return len(p), nil
}

func (h *fileHandle) Sync() error {
	f := h.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return err
	} else if inject {
		return fmt.Errorf("sync %s: %w", h.name, ErrInjected)
	}
	mf := f.files[h.name]
	if mf == nil {
		return fmt.Errorf("crashfs: sync of removed file %s", h.name)
	}
	mf.synced = len(mf.written)
	return nil
}

func (h *fileHandle) Close() error { return nil }

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf := f.files[path.Clean(name)]
	if mf == nil {
		return nil, fmt.Errorf("crashfs: %s: file does not exist", name)
	}
	out := make([]byte, len(mf.written))
	copy(out, mf.written)
	return out, nil
}

func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	dir = path.Clean(dir)
	prefix := dir + "/"
	if dir == "." {
		prefix = ""
	}
	seen := make(map[string]bool)
	var names []string
	for name := range f.files {
		if path.Dir(name) == dir {
			base := path.Base(name)
			if !seen[base] {
				seen[base] = true
				names = append(names, base)
			}
		} else if strings.HasPrefix(name, prefix) {
			rest := strings.TrimPrefix(name, prefix)
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				sub := rest[:i]
				if !seen[sub] {
					seen[sub] = true
					names = append(names, sub)
				}
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return err
	} else if inject {
		return fmt.Errorf("rename %s: %w", oldname, ErrInjected)
	}
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	mf := f.files[oldname]
	if mf == nil {
		return fmt.Errorf("crashfs: rename %s: file does not exist", oldname)
	}
	// If the destination existed durably, its durable content must survive a
	// crash until the rename's directory update is synced.
	if e := f.entries[newname]; e != nil && e.durable {
		if prev := f.files[newname]; prev != nil {
			if _, pending := f.removed[newname]; !pending {
				f.removed[newname] = &memFile{written: append([]byte(nil), prev.written[:prev.synced]...), synced: prev.synced}
			}
		}
	}
	delete(f.files, oldname)
	oldEntry := f.entries[oldname]
	delete(f.entries, oldname)
	if oldEntry != nil && oldEntry.durable {
		// The disappearance of the old name is volatile until dir sync.
		f.removed[oldname] = &memFile{written: append([]byte(nil), mf.written[:mf.synced]...), synced: mf.synced}
	}
	f.files[newname] = mf
	f.entries[newname] = &dirEntry{}
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return err
	} else if inject {
		return fmt.Errorf("remove %s: %w", name, ErrInjected)
	}
	name = path.Clean(name)
	mf := f.files[name]
	if mf == nil {
		return nil
	}
	if e := f.entries[name]; e != nil && e.durable {
		if _, pending := f.removed[name]; !pending {
			f.removed[name] = &memFile{written: append([]byte(nil), mf.written[:mf.synced]...), synced: mf.synced}
		}
	}
	delete(f.files, name)
	delete(f.entries, name)
	return nil
}

func (f *FS) RemoveAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return err
	} else if inject {
		return fmt.Errorf("removeall %s: %w", dir, ErrInjected)
	}
	dir = path.Clean(dir)
	for name, mf := range f.files {
		if name == dir || strings.HasPrefix(name, dir+"/") {
			if e := f.entries[name]; e != nil && e.durable {
				if _, pending := f.removed[name]; !pending {
					f.removed[name] = &memFile{written: append([]byte(nil), mf.written[:mf.synced]...), synced: mf.synced}
				}
			}
			delete(f.files, name)
			delete(f.entries, name)
		}
	}
	return nil
}

func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inject, err := f.step(); err != nil {
		return err
	} else if inject {
		return fmt.Errorf("syncdir %s: %w", dir, ErrInjected)
	}
	dir = path.Clean(dir)
	inDir := func(name string) bool {
		return dir == "." || path.Dir(name) == dir || strings.HasPrefix(name, dir+"/")
	}
	for name, e := range f.entries {
		if inDir(name) {
			e.durable = true
			// A durable entry supersedes any pending removal/overwrite of
			// the same name.
			delete(f.removed, name)
		}
	}
	for name := range f.removed {
		if inDir(name) {
			// The removal/rename-away is now durable.
			delete(f.removed, name)
		}
	}
	return nil
}

var _ vfs.FS = (*FS)(nil)
