package dropbox

import (
	"fmt"

	"insidedropbox/internal/chunker"
)

// Metastore is the server-side state of the service: accounts, their
// root namespaces, per-namespace journals and the global deduplicating
// chunk index; it also hands out device ids. It is the substrate behind
// the meta-data servers of Sec. 2.3.2.
type Metastore struct {
	accounts   map[AccountID]*Account
	namespaces map[NamespaceID]*Namespace
	chunks     map[chunker.Hash]int // chunk id -> size (content-addressed index)

	nextAccount   AccountID
	nextHost      HostID
	nextNamespace NamespaceID

	// OnJournalAdvance fires after a changeset commits; the notification
	// subsystem subscribes to push changes to online devices.
	OnJournalAdvance func(ns NamespaceID, seq uint64)
}

// AccountID identifies a user account.
type AccountID uint64

// Account is one user, with the root namespace its devices sync.
type Account struct {
	ID   AccountID
	Root NamespaceID
}

// Namespace is one synchronized folder with its journal.
type Namespace struct {
	ID      NamespaceID
	Journal []JournalEntry
}

// NewMetastore returns an empty store.
func NewMetastore() *Metastore {
	return &Metastore{
		accounts:      make(map[AccountID]*Account),
		namespaces:    make(map[NamespaceID]*Namespace),
		chunks:        make(map[chunker.Hash]int),
		nextAccount:   1,
		nextHost:      1,
		nextNamespace: 1,
	}
}

// CreateAccount provisions an account with its root namespace.
func (m *Metastore) CreateAccount() *Account {
	id := m.nextAccount
	m.nextAccount++
	ns := m.createNamespace()
	a := &Account{ID: id, Root: ns.ID}
	m.accounts[id] = a
	return a
}

// Account returns the account by id, or nil.
func (m *Metastore) Account(id AccountID) *Account { return m.accounts[id] }

func (m *Metastore) createNamespace() *Namespace {
	ns := &Namespace{ID: m.nextNamespace}
	m.nextNamespace++
	m.namespaces[ns.ID] = ns
	return ns
}

// LinkDevice registers a new device (host_int) under an account.
func (m *Metastore) LinkDevice(account AccountID) (HostID, error) {
	if m.accounts[account] == nil {
		return 0, fmt.Errorf("dropbox: no account %d", account)
	}
	h := m.nextHost
	m.nextHost++
	return h, nil
}

// NeedBlocks filters refs down to the hashes missing from the chunk index —
// the server side of deduplication.
func (m *Metastore) NeedBlocks(refs []chunker.Ref) []chunker.Hash {
	var missing []chunker.Hash
	for _, r := range refs {
		if _, ok := m.chunks[r.Hash]; !ok {
			missing = append(missing, r.Hash)
		}
	}
	return missing
}

// StoreChunk records an uploaded chunk in the index.
func (m *Metastore) StoreChunk(ref chunker.Ref) {
	if _, ok := m.chunks[ref.Hash]; !ok {
		m.chunks[ref.Hash] = ref.Size
	}
}

// HasChunk reports whether the index holds the hash.
func (m *Metastore) HasChunk(h chunker.Hash) bool {
	_, ok := m.chunks[h]
	return ok
}

// ChunkSize returns the stored size of a chunk (0 if unknown).
func (m *Metastore) ChunkSize(h chunker.Hash) int { return m.chunks[h] }

// Commit appends a journal entry to a namespace and fans out the
// notification. All chunks must be present in the index.
func (m *Metastore) Commit(ns NamespaceID, path string, refs []chunker.Ref) (uint64, error) {
	n := m.namespaces[ns]
	if n == nil {
		return 0, fmt.Errorf("dropbox: no namespace %d", ns)
	}
	for _, r := range refs {
		if !m.HasChunk(r.Hash) {
			return 0, fmt.Errorf("dropbox: commit references missing chunk %s", r.Hash.Short())
		}
	}
	seq := uint64(len(n.Journal)) + 1
	n.Journal = append(n.Journal, JournalEntry{Seq: seq, Path: path, Refs: refs})
	if m.OnJournalAdvance != nil {
		m.OnJournalAdvance(ns, seq)
	}
	return seq, nil
}

// UpdatesSince returns journal entries past the cursor.
func (m *Metastore) UpdatesSince(ns NamespaceID, cursor uint64) []JournalEntry {
	n := m.namespaces[ns]
	if n == nil || cursor >= uint64(len(n.Journal)) {
		return nil
	}
	return n.Journal[cursor:]
}
