package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"revelio/internal/core"
	"revelio/internal/dmcrypt"
	"revelio/internal/fleet"
)

// Persistent-volume layout for pad-edit. The agent's sealed key and
// certificate record sits at offset 0 and must survive for
// LoadPersistentCredentials after a reboot, so pad slots start past it.
const (
	padPrefix   = "/pad/"
	slotBase    = 64 << 10
	slotSize    = 4 << 10
	slotsPerTab = 32
)

// persistSize is the volume that holds slotsPerTab slots for each of n
// clients past the dm-crypt header.
func persistSize(n int) int64 {
	return dmcrypt.HeaderSectors*dmcrypt.SectorSize + slotBase + int64(n*slotsPerTab*slotSize)
}

// app is the node application the benchmark supplies through
// fleet.Config.App. Its spans and byte counters are the benchmark's view
// of the node handler tree and the storage layers under it.
type app struct {
	tr *tracer

	verityBytes atomic.Int64 // bytes returned by rootfs.FS.ReadFile
	cryptBytes  atomic.Int64 // bytes through Persist().ReadAt/WriteAt
}

func (a *app) handler(n *core.Node) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := a.tr.begin(requestRef(r), spanApp)
		ref := sp.ref()
		var (
			body   []byte
			status = http.StatusOK
		)
		switch {
		case r.URL.Path == fleet.HealthPath:
			body = []byte("ok")
		case strings.HasPrefix(r.URL.Path, padPrefix):
			body, status = a.pad(n, r, ref)
		default:
			body, status = a.file(n, r, ref)
		}
		// The app span ends before the response write, which streams
		// under the client's body time.
		sp.end()
		if status != http.StatusOK {
			http.Error(w, http.StatusText(status), status)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	})
}

// file serves GET /<path> as a dm-verity-verified read of the rootfs.
func (a *app) file(n *core.Node, r *http.Request, parent spanRef) ([]byte, int) {
	if r.Method != http.MethodGet {
		return nil, http.StatusMethodNotAllowed
	}
	sp := a.tr.begin(parent, spanVerity)
	data, err := n.VM.FS().ReadFile(strings.TrimPrefix(r.URL.Path, "/"))
	sp.end()
	if err != nil {
		return nil, http.StatusNotFound
	}
	a.verityBytes.Add(int64(len(data)))
	return data, http.StatusOK
}

// pad serves GET and PUT /pad/<slot>: one 4 KiB record on the dm-crypt
// persistent volume.
func (a *app) pad(n *core.Node, r *http.Request, parent spanRef) ([]byte, int) {
	slot, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, padPrefix))
	if err != nil || slot < 0 || slot >= tabs*slotsPerTab {
		return nil, http.StatusNotFound
	}
	off := int64(slotBase + slot*slotSize)
	switch r.Method {
	case http.MethodGet:
		buf := make([]byte, slotSize)
		sp := a.tr.begin(parent, spanCryptR)
		err := n.VM.Persist().ReadAt(buf, off)
		sp.end()
		if err != nil {
			return nil, http.StatusInternalServerError
		}
		a.cryptBytes.Add(slotSize)
		return buf, http.StatusOK
	case http.MethodPut:
		buf := make([]byte, slotSize+1)
		k, err := io.ReadFull(r.Body, buf)
		if err != io.ErrUnexpectedEOF || k != slotSize {
			return nil, http.StatusBadRequest
		}
		sp := a.tr.begin(parent, spanCryptW)
		err = n.VM.Persist().WriteAt(buf[:slotSize], off)
		sp.end()
		if err != nil {
			return nil, http.StatusInternalServerError
		}
		a.cryptBytes.Add(slotSize)
		return nil, http.StatusOK
	default:
		return nil, http.StatusMethodNotAllowed
	}
}
