package tokenizer

import "sort"

// Trie indexes the vocabulary's surface forms by prefix, in two flat arrays:
// node 0 is the root, and a node's children are one run of kids sorted by
// byte. It is built once per tokenizer and only read afterwards, so the graph
// compiler's shortcut walks and the greedy encoder share one instance across
// goroutines.
type Trie struct {
	nodes []trieNode
	kids  []TrieKid
}

type trieNode struct {
	token  Token // the token the path to this node spells, -1 if none
	lo, hi int32 // the node's children are kids[lo:hi]
}

// TrieKid is one byte leading out of a trie node.
type TrieKid struct {
	Byte byte
	Node int32
}

// Token returns the token spelled by the path from the root to node, or -1.
func (t *Trie) Token(node int32) Token { return t.nodes[node].token }

// Kids returns node's children, sorted by byte. The slice must not be mutated.
func (t *Trie) Kids(node int32) []TrieKid {
	return t.kids[t.nodes[node].lo:t.nodes[node].hi]
}

// Child follows byte b out of node.
func (t *Trie) Child(node int32, b byte) (int32, bool) {
	kids := t.Kids(node)
	i := sort.Search(len(kids), func(i int) bool { return kids[i].Byte >= b })
	if i < len(kids) && kids[i].Byte == b {
		return kids[i].Node, true
	}
	return 0, false
}

// Trie returns the prefix index of b's vocabulary (every token but EOS, the
// single bytes included), building it on first use.
func (b *BPE) Trie() *Trie {
	b.trieOnce.Do(func() { b.trie = buildTrie(b.vocab) })
	return b.trie
}

func buildTrie(vocab []string) *Trie {
	var ids []Token
	for id, surface := range vocab {
		if surface != "" {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return vocab[ids[i]] < vocab[ids[j]] })
	t := &Trie{nodes: []trieNode{{token: -1}}}
	// fill gives node its token and subtree: ids are the tokens, in surface
	// order, that share the depth bytes spelled by the path to node.
	var fill func(node int32, ids []Token, depth int)
	fill = func(node int32, ids []Token, depth int) {
		if len(vocab[ids[0]]) == depth {
			t.nodes[node].token = ids[0]
			ids = ids[1:]
		}
		lo := len(t.kids)
		for i, id := range ids {
			if i == 0 || vocab[id][depth] != vocab[ids[i-1]][depth] {
				t.kids = append(t.kids, TrieKid{Byte: vocab[id][depth], Node: int32(len(t.nodes))})
				t.nodes = append(t.nodes, trieNode{token: -1})
			}
		}
		hi := len(t.kids)
		t.nodes[node].lo, t.nodes[node].hi = int32(lo), int32(hi)
		for k := lo; k < hi; k++ {
			n := sort.Search(len(ids), func(i int) bool { return vocab[ids[i]][depth] > t.kids[k].Byte })
			fill(t.kids[k].Node, ids[:n], depth+1)
			ids = ids[n:]
		}
	}
	fill(0, ids, 0)
	return t
}
