// Self-test TU (analyzed, never compiled): pointer-typed Atomic<>
// members without publication intent. Check (3a) must flag the
// defaulted-counter and the explicit-seqlock declarations — a relaxed
// (or non-acquire) load of a pointer that is then dereferenced has no
// happens-before edge back to the initialization of the pointee. The
// kPublicationPtr declaration must stay quiet.

namespace seedpub {

struct Node {
  int value;
};

class Registry {
 private:
  Atomic<Node*> head_{nullptr};  // seeded: defaulted kCounter intent
  Atomic<Node*, AtomicIntent::kSeqlock> stale_{nullptr};  // seeded: wrong
  Atomic<Node*, AtomicIntent::kPublicationPtr> ok_{nullptr};  // fine
  Atomic<unsigned long> count_{0};  // fine: scalar counter
};

}  // namespace seedpub
