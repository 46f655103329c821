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
    std::pop_heap(heap_.begin(), heap_.end(), hitLess);
    heap_.back() = hit;
    std::push_heap(heap_.begin(), heap_.end(), hitLess);
}

std::vector<SearchHit>
TopK::sortedHits() const
{
    std::vector<SearchHit> out = heap_;
    std::sort(out.begin(), out.end(), hitLess);
    return out;
}

std::vector<SearchHit>
mergeHitLists(std::span<const std::vector<SearchHit>> lists, std::size_t k)
{
    TopK topk(k);
    for (const auto &list : lists) {
        for (const auto &h : list)
            topk.push(h.id, h.dist);
    }
    return topk.sortedHits();
}

} // namespace vlr::vs
