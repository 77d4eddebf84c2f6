package dropbox

import (
	"fmt"

	"insidedropbox/internal/chunker"
)

// Metastore is the server-side state of the service: accounts, devices,
// namespaces, per-namespace journals and the global deduplicating chunk
// index. It is the substrate behind the meta-data servers of Sec. 2.3.2.
type Metastore struct {
	accounts   map[AccountID]*Account
	hosts      map[HostID]*DeviceInfo
	namespaces map[NamespaceID]*Namespace
	chunks     map[chunker.Hash]int // chunk id -> size (content-addressed index)

	nextAccount   AccountID
	nextHost      HostID
	nextNamespace NamespaceID

	// OnJournalAdvance fires after a changeset commits; the notification
	// subsystem subscribes to push changes to online devices.
	OnJournalAdvance func(ns NamespaceID, seq uint64)

	// Stats.
	dedupHits   int
	chunksTotal int
}

// AccountID identifies a user account.
type AccountID uint64

// Account groups the devices and namespaces of one user.
type Account struct {
	ID     AccountID
	Root   NamespaceID
	Hosts  []HostID
	Shared []NamespaceID // shared-folder namespaces joined by this account
}

// DeviceInfo is the server view of a linked device.
type DeviceInfo struct {
	Host    HostID
	Account AccountID
}

// Namespace is one synchronized folder with its journal.
type Namespace struct {
	ID      NamespaceID
	Journal []JournalEntry
	Members []AccountID // accounts with access (>1 for shared folders)
}

// NewMetastore returns an empty store.
func NewMetastore() *Metastore {
	return &Metastore{
		accounts:      make(map[AccountID]*Account),
		hosts:         make(map[HostID]*DeviceInfo),
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
	ns.Members = []AccountID{id}
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
	a := m.accounts[account]
	if a == nil {
		return 0, fmt.Errorf("dropbox: no account %d", account)
	}
	h := m.nextHost
	m.nextHost++
	m.hosts[h] = &DeviceInfo{Host: h, Account: account}
	a.Hosts = append(a.Hosts, h)
	return h, nil
}

// ShareFolder creates a shared namespace owned by the given accounts (or
// adds members to grow an existing share).
func (m *Metastore) ShareFolder(members ...AccountID) (NamespaceID, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("dropbox: shared folder needs members")
	}
	ns := m.createNamespace()
	for _, id := range members {
		a := m.accounts[id]
		if a == nil {
			return 0, fmt.Errorf("dropbox: no account %d", id)
		}
		ns.Members = append(ns.Members, id)
		a.Shared = append(a.Shared, ns.ID)
	}
	return ns.ID, nil
}

// NamespacesOf lists every namespace an account can sync: root + shares.
func (m *Metastore) NamespacesOf(account AccountID) []NamespaceID {
	a := m.accounts[account]
	if a == nil {
		return nil
	}
	out := append([]NamespaceID{a.Root}, a.Shared...)
	return out
}

// Namespace returns a namespace by id, or nil.
func (m *Metastore) Namespace(id NamespaceID) *Namespace { return m.namespaces[id] }

// NeedBlocks filters refs down to the hashes missing from the chunk index —
// the server side of deduplication.
func (m *Metastore) NeedBlocks(refs []chunker.Ref) []chunker.Hash {
	var missing []chunker.Hash
	for _, r := range refs {
		if _, ok := m.chunks[r.Hash]; ok {
			m.dedupHits++
			continue
		}
		missing = append(missing, r.Hash)
	}
	return missing
}

// StoreChunk records an uploaded chunk in the index.
func (m *Metastore) StoreChunk(ref chunker.Ref) {
	if _, ok := m.chunks[ref.Hash]; !ok {
		m.chunks[ref.Hash] = ref.Size
		m.chunksTotal++
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

// JournalSeq returns the latest sequence number of a namespace.
func (m *Metastore) JournalSeq(ns NamespaceID) uint64 {
	n := m.namespaces[ns]
	if n == nil {
		return 0
	}
	return uint64(len(n.Journal))
}

// DedupHits reports how many uploads were avoided by deduplication.
func (m *Metastore) DedupHits() int { return m.dedupHits }

// ChunkCount reports the number of distinct chunks stored.
func (m *Metastore) ChunkCount() int { return m.chunksTotal }
