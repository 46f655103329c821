#include "vecsearch/topk.h"

#include <algorithm>

namespace vlr::vs
{

TopK::TopK(std::size_t k)
    : k_(k)
{
    heap_.reserve(k);
}

void
TopK::insert(const SearchHit &hit)
{
    if (heap_.size() < k_) {
        heap_.push_back(hit);
        std::push_heap(heap_.begin(), heap_.end(), hitLess);
        return;
    }
    // Full: the hit replaces the root (the k-th best) and sifts down
    // in one pass.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && hitLess(heap_[c], heap_[c + 1]))
            ++c;
        if (!hitLess(hit, heap_[c]))
            break;
        heap_[i] = heap_[c];
        i = c;
    }
    heap_[i] = hit;
}

std::vector<SearchHit>
TopK::sortedHits() const
{
    // sort_heap, unlike sort, stays in bounds when a NaN distance
    // leaves hitLess short of a strict weak order.
    std::vector<SearchHit> out = heap_;
    std::sort_heap(out.begin(), out.end(), hitLess);
    return out;
}

} // namespace vlr::vs
