// Self-test TU (analyzed, never compiled): the shape of the Searcher's
// entry point — a GQR_HOT member function template, declared in the
// class, defined out of line under a constrained template head and
// explicitly instantiated per source type — whose body allocates. The
// marker sits only on the in-class declaration, so the analyzer must
// carry it to the out-of-line template definition and report the
// allocation there.
#include <concepts>
#include <vector>

namespace seedtemplate {

struct TableA {};
struct TableB {};

template <typename T>
concept SeedSource = std::same_as<T, TableA> || std::same_as<T, TableB>;

class SeedSearcher {
 public:
  template <SeedSource Source>
  GQR_HOT int SeedSearchInto(const Source& source, int n) const;
};

template <SeedSource Source>
int SeedSearcher::SeedSearchInto(const Source& source, int n) const {
  (void)source;
  std::vector<int> hits(static_cast<size_t>(n), 0);  // must fire
  return static_cast<int>(hits.size());
}

template int SeedSearcher::SeedSearchInto<TableA>(const TableA&, int) const;
template int SeedSearcher::SeedSearchInto<TableB>(const TableB&, int) const;

}  // namespace seedtemplate
