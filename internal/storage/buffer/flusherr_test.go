package buffer

import (
	"errors"
	"testing"

	"svrdb/internal/storage/pagefile"
)

// failWriteFile wraps a pagefile.File and fails writes of one page while
// armed, recording the writes that do go through.
type failWriteFile struct {
	pagefile.File
	failID pagefile.PageID
	armed  bool
	writes []pagefile.PageID
}

func (f *failWriteFile) Write(id pagefile.PageID, data []byte) error {
	if f.armed && id == f.failID {
		return errors.New("synthetic write failure")
	}
	f.writes = append(f.writes, id)
	return f.File.Write(id, data)
}

// TestFlushOrderedErrorKeepsFramesDirty pins the flush error contract: a
// failing writeback surfaces as a *FlushError naming the page, the failing
// frame and every later frame in the sweep stay dirty, and a retry after the
// fault clears completes the flush without rewriting already-clean pages.
func TestFlushOrderedErrorKeepsFramesDirty(t *testing.T) {
	ff := &failWriteFile{File: pagefile.MustNewMem(pagefile.DefaultPageSize), failID: 1, armed: true}
	p := MustNew(ff, 8)
	for i := 0; i < 3; i++ {
		fr, err := p.NewPage(pagefile.InvalidPageID)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		fr.MarkDirty()
		fr.Release()
	}

	err := p.FlushOrdered()
	var fe *FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("FlushOrdered returned %v, want *FlushError", err)
	}
	if fe.PageID != 1 {
		t.Errorf("FlushError.PageID = %d, want 1", fe.PageID)
	}
	if len(ff.writes) != 1 || ff.writes[0] != 0 {
		t.Errorf("writes before the fault = %v, want [0]", ff.writes)
	}
	dirty := func(id pagefile.PageID) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.frames[id].dirty
	}
	if dirty(0) {
		t.Error("page 0 flushed but still marked dirty")
	}
	if !dirty(1) || !dirty(2) {
		t.Error("failing frame or a later frame was marked clean; a retry would lose its contents")
	}

	// Retry after the fault clears: only the still-dirty pages go out.
	ff.armed = false
	if err := p.FlushOrdered(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if len(ff.writes) != 3 || ff.writes[1] != 1 || ff.writes[2] != 2 {
		t.Errorf("writes after retry = %v, want [0 1 2]", ff.writes)
	}
	if dirty(1) || dirty(2) {
		t.Error("frames still dirty after a successful retry")
	}

	// The file must hold every page's final contents.
	buf := make([]byte, p.PageSize())
	for id := pagefile.PageID(0); id < 3; id++ {
		if err := ff.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(id+1) {
			t.Errorf("page %d holds %d, want %d", id, buf[0], id+1)
		}
	}
}
