package repro.core

import org.apache.spark.broadcast.Broadcast

/** Generates the candidate clusters one sample is compared against in an
  * epoch. This is where the paper's speed-up lives: the full scan (`0..k-1`)
  * is what traditional k-means / BKM pay; GK-means only visits the clusters
  * its graph neighbours reside in (Alg. 2 lines 6-12); closure k-means only
  * visits clusters of its random-projection neighbourhood mates.
  */
trait CandidateGen extends Serializable {

  /** Fill `buf` with candidate cluster ids for point `i` and return the
    * count. `labels` is the epoch-start assignment snapshot. Every id is in
    * [0, k); ids may repeat and may include `i`'s own cluster — the engine
    * scores each distinct other cluster once, in first-emission order.
    */
  def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int

  /** Upper bound on candidates per sample — sizes the reusable buffer. */
  def maxCandidates: Int
}

/** Full scan over all k clusters (traditional k-means / boost k-means). */
final class AllClustersGen(k: Int) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int = {
    var c = 0
    while (c < k) { buf(c) = c; c += 1 }
    k
  }
  override def maxCandidates: Int = k
}

/** Clusters where the sample's top-κ graph neighbours reside (Alg. 2);
  * every graph row holds at least κ neighbours.
  */
final class GraphNbrGen(bcGraph: Broadcast[Array[Array[Int]]], kappa: Int) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int = {
    val row = bcGraph.value(i)
    var j = 0
    while (j < kappa) { buf(j) = labels(row(j)); j += 1 }
    kappa
  }
  override def maxCandidates: Int = kappa
}

/** Closure candidates: clusters of every point sharing one of `m` random-
  * projection buckets with the sample (our stand-in for the RP-tree leaf
  * neighbourhoods of closure k-means — see DESIGN.md substitutions).
  *
  * `memberOf(proj)(id)` is the bucket index of `id` under projection `proj`;
  * `buckets(proj)(b)` lists the member ids of bucket `b`.
  */
final class ClosureGen(
    bcMemberOf: Broadcast[Array[Array[Int]]],
    bcBuckets: Broadcast[Array[Array[Array[Int]]]],
) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int =
    walk(i, labels, buf, 0)

  /** Write `clusterOf(mate)` for every bucket mate of `i`, projection by
    * projection, into `buf` from index `from`, skipping negative values;
    * return the end index.
    */
  private[core] def walk(i: Int, clusterOf: Array[Int], buf: Array[Int], from: Int): Int = {
    val memberOf = bcMemberOf.value; val buckets = bcBuckets.value
    var out = from
    var pr = 0
    while (pr < memberOf.length) {
      val mates = buckets(pr)(memberOf(pr)(i))
      var j = 0
      while (j < mates.length) {
        val c = clusterOf(mates(j))
        if (c >= 0) { buf(out) = c; out += 1 }
        j += 1
      }
      pr += 1
    }
    out
  }

  override val maxCandidates: Int = {
    val buckets = bcBuckets.value
    buckets.map(_.map(_.length).max).sum
  }
}

/** Closure *seeding* candidates (Wang et al. initialisation): the clusters of
  * seed points found inside the sample's neighbourhoods, plus a deterministic
  * fallback seed so every sample has at least one candidate. `seedOf(id)` is
  * the seed's cluster index, or -1 for non-seed points.
  */
final class SeedClosureGen(
    bcMemberOf: Broadcast[Array[Array[Int]]],
    bcBuckets: Broadcast[Array[Array[Array[Int]]]],
    bcSeedOf: Broadcast[Array[Int]],
    k: Int,
) extends CandidateGen {
  private val closure = new ClosureGen(bcMemberOf, bcBuckets)

  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int = {
    buf(0) = i % k // fallback candidate
    closure.walk(i, bcSeedOf.value, buf, 1)
  }
  override val maxCandidates: Int = closure.maxCandidates + 1
}
