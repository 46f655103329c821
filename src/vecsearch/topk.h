/**
 * @file
 * Bounded top-k selection (smaller distance = better).
 */

#ifndef VLR_VECSEARCH_TOPK_H
#define VLR_VECSEARCH_TOPK_H

#include <limits>
#include <vector>

#include "common/types.h"

namespace vlr::vs
{

/** One search result: vector id and comparable distance. */
struct SearchHit
{
    idx_t id = kInvalidIdx;
    float dist = std::numeric_limits<float>::max();

    bool
    operator==(const SearchHit &o) const
    {
        return id == o.id && dist == o.dist;
    }
};

/** The total order on hits: smaller distance first, ties by smaller id. */
inline bool
hitLess(const SearchHit &a, const SearchHit &b)
{
    return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
}

/**
 * Fixed-capacity max-heap keeping the k smallest distances seen.
 * push() is O(log k) once full; O(1) rejection for distances worse than
 * the current kth best. A zero-capacity TopK keeps nothing: it is
 * always full, accepts no hit and returns no hits.
 */
class TopK
{
  public:
    explicit TopK(std::size_t k);

    /**
     * True when push(id, dist) would keep the hit: the heap is not yet
     * full, or (dist, id) orders before the k-th best under hitLess.
     * push() applies this same test.
     */
    bool
    accepts(idx_t id, float dist) const
    {
        if (heap_.size() < k_)
            return true;
        return k_ > 0 && hitLess({id, dist}, heap_.front());
    }

    /** Keep the hit if accepts() it; rejection is inline. */
    void
    push(idx_t id, float dist)
    {
        if (accepts(id, dist))
            insert({id, dist});
    }

    /**
     * Largest (worst) distance currently kept: float max until full,
     * and -inf at zero capacity, where no distance can enter.
     */
    float
    worst() const
    {
        if (k_ == 0)
            return -std::numeric_limits<float>::infinity();
        if (heap_.size() < k_)
            return std::numeric_limits<float>::max();
        return heap_.front().dist;
    }

    /** Id of the worst kept hit once full, else kInvalidIdx. */
    idx_t
    worstId() const
    {
        if (k_ == 0 || heap_.size() < k_)
            return kInvalidIdx;
        return heap_.front().id;
    }

    bool full() const { return heap_.size() >= k_; }
    std::size_t size() const { return heap_.size(); }
    std::size_t capacity() const { return k_; }

    /** Extract hits sorted ascending by distance (ties by id). */
    std::vector<SearchHit> sortedHits() const;

  private:
    /** Add an accepted hit, evicting the k-th best once full. */
    void insert(const SearchHit &hit);

    std::size_t k_;
    std::vector<SearchHit> heap_; // max-heap under hitLess
};

} // namespace vlr::vs

#endif // VLR_VECSEARCH_TOPK_H
