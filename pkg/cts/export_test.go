package cts

// LeafKey and MergeKey expose the level loop's two subtree-key derivations
// to the external tests.
func LeafKey(s Settings, sink Sink) string { return leafKey(subtreeKeyPrefix(s), sink) }

func MergeKey(s Settings, a, b string) string { return mergeKey(subtreeKeyPrefix(s), a, b) }
