package repro.core

import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}
import repro.eval.Metrics
import repro.knn.KnnGraph

/** Epoch engine: exact Lloyd semantics for NearestRule, ΔI behaviour for
  * BoostRule, candidate bookkeeping, and state/label consistency.
  */
class EngineSpec extends SparkSpec {

  private lazy val points = TestData.tiny
  private lazy val vecs = TestData.tinyVecs
  private val n = 600
  private val d = 8

  private def freshState(labels: Array[Int], k: Int) = ClusterState.fromLabels(points, labels, k, d)

  test("NearestRule full-scan epoch equals a local Lloyd assignment") {
    val k = 10
    val labels = TestData.randomLabels(n, k, 1)
    val st = freshState(labels, k)
    val r = Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.NearestRule)
    // local reference: keep current on ties, first strict improvement wins
    val expected = labels.clone()
    vecs.indices.foreach { i =>
      val x = vecs(i); val xx = VecOps.normSqF(x)
      var best = labels(i)
      var bestD = st.sqDistToCentroid(x, xx, best)
      (0 until k).foreach { v =>
        if (v != labels(i)) {
          val dd = st.sqDistToCentroid(x, xx, v)
          if (dd < bestD) { bestD = dd; best = v }
        }
      }
      expected(i) = best
    }
    assert(r.labels sameElements expected)
  }

  test("NearestRule epoch never increases distortion (Lloyd monotonicity)") {
    val k = 12
    var labels = TestData.randomLabels(n, k, 2)
    var st = freshState(labels, k)
    val sumSq = Metrics.sumSqNorm(points)
    var prev = st.distortion(sumSq, n)
    (0 until 5).foreach { _ =>
      val r = Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.NearestRule)
      labels = r.labels; st = r.state
      val cur = st.distortion(sumSq, n)
      assert(cur <= prev + 1e-9 * (1 + prev), s"distortion rose: $prev -> $cur")
      prev = cur
    }
  }

  test("BoostRule on a single partition strictly decreases distortion until fixpoint") {
    val k = 8
    val one = points.repartition(1).cache()
    one.count()
    try {
      var labels = TestData.randomLabels(n, k, 3)
      var st = ClusterState.fromLabels(one, labels, k, d)
      val sumSq = Metrics.sumSqNorm(one)
      var prev = st.distortion(sumSq, n)
      (0 until 4).foreach { _ =>
        val r = Engine.epoch(one, labels, st, new AllClustersGen(k), Engine.BoostRule)
        labels = r.labels; st = r.state
        val cur = st.distortion(sumSq, n)
        // sequential incremental moves only accept positive ΔI
        assert(cur <= prev + 1e-9 * (1 + prev), s"distortion rose: $prev -> $cur")
        prev = cur
      }
    } finally one.unpersist()
  }

  test("BoostRule multi-partition epochs trend downward") {
    val k = 8
    var labels = TestData.randomLabels(n, k, 4)
    var st = freshState(labels, k)
    val sumSq = Metrics.sumSqNorm(points)
    val start = st.distortion(sumSq, n)
    (0 until 5).foreach { _ =>
      val r = Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.BoostRule)
      labels = r.labels; st = r.state
    }
    assert(st.distortion(sumSq, n) < start)
  }

  test("epoch state equals a from-scratch recompute of its labels") {
    // Cluster k-1 starts empty with a non-zero fallback centroid and no
    // candidate list names it, so the fallback path runs too.
    val k = 6
    val seeded = TestData.randomLabels(n, k, 5)
    val labels = seeded.map(l => if (l == k - 1) 0 else l)
    val four = points.repartition(4).cache()
    four.count()
    try {
      Seq(points, four).foreach { pts =>
        val st = ClusterState.fromLabels(pts, labels, k, d, Some(ClusterState.fromLabels(pts, seeded, k, d)))
        Seq(Engine.NearestRule, Engine.BoostRule).foreach { rule =>
          val r = Engine.epoch(pts, labels, st, new AllClustersGen(k - 1), rule)
          val rebuilt = ClusterState.fromLabels(pts, r.labels, k, d, Some(st))
          assert(r.moved > 0 && r.state.cnt(k - 1) == 0, s"$rule")
          assert(r.state.cnt sameElements rebuilt.cnt, s"$rule")
          (0 until k).foreach(c => assert(r.state.comp(c) sameElements rebuilt.comp(c), s"$rule cluster $c"))
        }
      }
    } finally four.unpersist()
  }

  /** Fails unless `st` equals a from-scratch recompute of `labels` on pts,
    * bit for bit.
    */
  private def assertResummed(pts: Dataset[Point], labels: Array[Int], st: ClusterState, prev: ClusterState, what: String): Unit = {
    val rebuilt = ClusterState.fromLabels(pts, labels, st.k, d, Some(prev))
    assert(st.cnt sameElements rebuilt.cnt, what)
    (0 until st.k).foreach(c => assert(java.util.Arrays.equals(st.comp(c), rebuilt.comp(c)), s"$what cluster $c"))
  }

  test("epoch chains re-sum only changed rows and still equal fromLabels, bit for bit") {
    // Start from the data's own clusters with a fifth of the points moved at
    // random, plus a cluster `victim` of a few points from two far-apart
    // clusters. Nobody is offered the victim, and until epoch 2 its members
    // are offered nothing; from epoch 2 on they are offered every other
    // cluster, and all leave it, so it empties part way through the chain.
    // Epoch 2 runs the nearest rule in both chains: the Boost rule never
    // moves a cluster's last point out of it within a partition.
    val k = 13
    val victim = 12
    val rng = new scala.util.Random(21)
    val gt = TestData.tinyGt
    val start = gt.map(g => if (rng.nextInt(5) == 0) rng.nextInt(12) else g)
    Seq(0, 5).foreach(c => gt.indices.filter(gt(_) == c).take(3).foreach(start(_) = victim))
    val four = points.repartition(4).cache()
    val one = points.repartition(1).cache()
    try Seq(one, four).foreach { pts =>
      Seq(Engine.NearestRule, Engine.BoostRule).foreach { main =>
        var labels = start
        var st = ClusterState.fromLabels(pts, labels, k, d)
        (0 until 6).foreach { t =>
          val rule = if (t == 2) Engine.NearestRule else main
          val r = Engine.epoch(pts, labels, st, new VictimGen(k, victim, open = t >= 2), rule)
          val what = s"$main chain on ${pts.rdd.getNumPartitions} partitions, epoch $t"
          assertResummed(pts, r.labels, r.state, st, what)
          assert(r.state.basis.labels eq r.labels, what)
          if (t == 2) assert(st.cnt(victim) == 6 && r.state.cnt(victim) == 0, what)
          if (t == 0) assert(r.moved > 0, what)
          labels = r.labels; st = r.state
        }
      }
    } finally { one.unpersist(); four.unpersist() }
  }

  test("epochs over a state that does not describe their labels and points re-sum in full, bit for bit") {
    val k = 9
    val labels = TestData.randomLabels(n, k, 22)
    val other = TestData.randomLabels(n, k, 23)
    val four = points.repartition(4).cache()
    four.count()
    // The Boost rule needs a state that counts each point in its cluster, so
    // the first two cases run the nearest rule only.
    val both = Seq(Engine.NearestRule, Engine.BoostRule)
    val cases = Seq(
      // a seed state with no points summed at all
      ("fromCentroids", new Array[Int](n), () => Clustering.randomSeedState(points, n, k, d, 24), Seq(Engine.NearestRule)),
      // partials of other labels
      ("other labels", labels, () => ClusterState.fromLabels(points, other, k, d), Seq(Engine.NearestRule)),
      // partials of an equal labels array, but another instance
      ("a copy of the labels", labels.clone(), () => ClusterState.fromLabels(points, labels, k, d), both),
      // partials of the same labels, summed over another Dataset
      ("another Dataset", labels, () => ClusterState.fromLabels(four, labels, k, d), both),
    )
    try cases.foreach { case (what, lab, state, rules) =>
      val st = state()
      rules.foreach { rule =>
        val r = Engine.epoch(points, lab, st, new AllClustersGen(k), rule)
        assert(r.moved > 0, s"$rule, $what")
        assertResummed(points, r.labels, r.state, st, s"$rule, $what")
      }
    } finally four.unpersist()
  }

  test("a converged Lloyd fixpoint reports zero moves") {
    val k = 5
    var labels = TestData.randomLabels(n, k, 6)
    var st = freshState(labels, k)
    (0 until 20).foreach { _ =>
      val r = Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.NearestRule)
      labels = r.labels; st = r.state
    }
    val r = Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.NearestRule)
    assert(r.moved == 0)
    assert(r.state.cnt sameElements st.cnt)
    (0 until k).foreach(c => assert(r.state.comp(c) sameElements st.comp(c)))
  }

  test("distEvals for a full scan is at most n*k and positive") {
    val k = 7
    val labels = TestData.randomLabels(n, k, 7)
    val r = Engine.epoch(points, labels, freshState(labels, k), new AllClustersGen(k), Engine.NearestRule)
    assert(r.distEvals > 0 && r.distEvals <= n.toLong * k)
  }

  test("GraphNbrGen evaluates at most kappa candidates per point") {
    val k = 30
    val kappa = 6
    val labels = TestData.randomLabels(n, k, 8)
    val g = KnnGraph.random(n, kappa, 9)
    val bc = spark.sparkContext.broadcast(g.ids)
    try {
      val r = Engine.epoch(points, labels, freshState(labels, k), new GraphNbrGen(bc, kappa), Engine.BoostRule)
      assert(r.distEvals <= n.toLong * kappa)
    } finally bc.destroy()
  }

  test("GraphNbrGen candidate evaluations are independent of k") {
    val kappa = 6
    val g = KnnGraph.random(n, kappa, 10)
    val bc = spark.sparkContext.broadcast(g.ids)
    try {
      val evals = Seq(20, 200).map { k =>
        val labels = TestData.randomLabels(n, k, 11)
        Engine.epoch(points, labels, freshState(labels, k), new GraphNbrGen(bc, kappa), Engine.BoostRule).distEvals
      }
      // both are bounded by n*kappa; the large-k run must not blow up
      assert(evals(1) <= n.toLong * kappa)
      assert(evals(1) < 2 * evals(0) + n)
    } finally bc.destroy()
  }

  test("BoostRule moves into an empty cluster when it helps") {
    // all points in cluster 0; cluster 1 empty with a far fallback centroid
    val labels = Array.fill(n)(0)
    val prev = ClusterState.fromLabels(points, labels, 2, d)
    val st = ClusterState.fromLabels(points, labels, 2, d, Some(prev))
    val r = Engine.epoch(points, labels, st, new AllClustersGen(2), Engine.BoostRule)
    // splitting one cluster into two always raises the objective on non-degenerate data
    assert(r.moved > 0)
    assert(r.state.cnt.count(_ > 0) == 2)
  }

  test("labels untouched for points that do not move") {
    val k = 4
    val labels = TestData.randomLabels(n, k, 12)
    val r = Engine.epoch(points, labels, freshState(labels, k), new AllClustersGen(k), Engine.NearestRule)
    val movedIds = labels.indices.filter(i => labels(i) != r.labels(i))
    assert(movedIds.size == r.moved)
  }

  test("repeated and own-cluster candidates are scored once each, in emission order") {
    val k = 5
    val labels = TestData.randomLabels(n, k, 13)
    val st = freshState(labels, k)
    val distinctOthers = labels.map(u => Set(1, 2, 3).count(_ != u).toLong).sum
    Seq(Engine.NearestRule, Engine.BoostRule).foreach { rule =>
      val raw = Engine.epoch(points, labels, st, new RepeatingGen(deduped = false), rule)
      val clean = Engine.epoch(points, labels, st, new RepeatingGen(deduped = true), rule)
      assert(raw.distEvals == distinctOthers, s"$rule")
      assert(clean.distEvals == distinctOthers, s"$rule")
      assert(raw.labels sameElements clean.labels, s"$rule")
    }
  }

  /** BoostRule written out one candidate at a time: per partition, in the
    * partition's row order, the paper's sequential procedure against a
    * private copy of the epoch-start state, each dot product a `dotFD` call.
    */
  private def boostReference(pts: Dataset[Point], labels: Array[Int], st: ClusterState, gen: CandidateGen): Array[Int] = {
    val out = labels.clone()
    pts.rdd.mapPartitions(it => Iterator.single(it.map(_.id.toInt).toArray)).collect().foreach { ids =>
      val cnt = st.cnt.clone(); val norm = st.compNormSq.clone(); val comp = st.comp.map(_.clone())
      val buf = new Array[Int](gen.maxCandidates)
      ids.foreach { i =>
        val x = vecs(i); val xx = VecOps.normSqF(x); val u = labels(i)
        val cands = buf.take(gen.fill(i, labels, buf)).distinct.filter(_ != u)
        val dotU = VecOps.dotFD(x, comp(u))
        val gU = BoostMath.removalGain(norm(u), cnt(u), dotU, xx)
        var best = -1; var bestGain = 0.0; var bestDotV = 0.0
        cands.foreach { v =>
          val dotV = VecOps.dotFD(x, comp(v))
          val gain = BoostMath.insertionGain(norm(v), cnt(v), dotV, xx) + gU
          if (gain > bestGain) { bestGain = gain; best = v; bestDotV = dotV }
        }
        if (best >= 0 && bestGain > 1e-9 * (xx + 1.0)) {
          norm(u) = norm(u) - 2.0 * dotU + xx
          VecOps.subFrom(comp(u), x)
          cnt(u) -= 1
          if (cnt(u) == 0) norm(u) = 0.0
          if (cnt(best) == 0) { VecOps.setFrom(comp(best), x); norm(best) = xx }
          else { norm(best) = norm(best) + 2.0 * bestDotV + xx; VecOps.addTo(comp(best), x) }
          cnt(best) += 1
          out(i) = best
        }
      }
    }
    out
  }

  /** NearestRule written out one candidate at a time: every point against
    * the epoch-start state, each distance a `sqDistToCentroid` call.
    */
  private def nearestReference(labels: Array[Int], st: ClusterState, gen: CandidateGen): Array[Int] = {
    val buf = new Array[Int](gen.maxCandidates)
    labels.indices.map { i =>
      val x = vecs(i); val xx = VecOps.normSqF(x); val u = labels(i)
      var best = u; var bestD = st.sqDistToCentroid(x, xx, u)
      buf.take(gen.fill(i, labels, buf)).distinct.filter(_ != u).foreach { v =>
        val dd = st.sqDistToCentroid(x, xx, v)
        if (dd < bestD) { bestD = dd; best = v }
      }
      best
    }.toArray
  }

  /** Runs `rule` with 0 to 9 distinct candidates per point, so the dot
    * rows end both in a pair and in an odd last row, on 1 and 3 partitions, and
    * checks labels, evals and state bit for bit against `reference`.
    */
  private def checkAgainstReference(
      rule: Engine.Rule, labels: Array[Int], prev: Option[ClusterState],
  )(reference: (Dataset[Point], ClusterState, CandidateGen) => Array[Int]): Unit = {
    val k = 11
    val three = points.repartition(3).cache()
    three.count()
    try {
      Seq(points, three).foreach { pts =>
        val st = ClusterState.fromLabels(pts, labels, k, d, prev)
        val gen = new CountingGen(k)
        val r = Engine.epoch(pts, labels, st, gen, rule)
        val want = reference(pts, st, gen)
        assert(r.moved > 0)
        assert(r.distEvals == (0 until n).map(_ % 10).sum.toLong)
        assert(r.labels sameElements want)
        val rebuilt = ClusterState.fromLabels(pts, want, k, d, Some(st))
        assert(r.state.cnt sameElements rebuilt.cnt)
        (0 until k).foreach(c => assert(r.state.comp(c) sameElements rebuilt.comp(c), s"cluster $c"))
      }
    } finally three.unpersist()
  }

  test("BoostRule with 0 to 9 distinct candidates per point equals the one-at-a-time reference") {
    val labels = TestData.randomLabels(n, 11, 14)
    checkAgainstReference(Engine.BoostRule, labels, None)((pts, st, gen) => boostReference(pts, labels, st, gen))
  }

  test("NearestRule with 0 to 9 distinct candidates per point equals the one-at-a-time reference") {
    // Cluster 10 starts empty with its seeded centroid as fallback, so the
    // empty branch of the distance formula runs too.
    val seeded = TestData.randomLabels(n, 11, 15)
    val labels = seeded.map(l => if (l == 10) 0 else l)
    val prev = ClusterState.fromLabels(points, seeded, 11, d)
    checkAgainstReference(Engine.NearestRule, labels, Some(prev))((_, st, gen) => nearestReference(labels, st, gen))
  }

  test("AllClustersGen fills 0..k-1") {
    val gen = new AllClustersGen(5)
    val buf = new Array[Int](5)
    assert(gen.fill(0, Array(0), buf) == 5)
    assert(buf.toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("GraphNbrGen maps neighbour ids through the label snapshot") {
    val g = Array(Array(1, 2), Array(0, 2), Array(0, 1))
    val bc = spark.sparkContext.broadcast(g)
    try {
      val gen = new GraphNbrGen(bc, 2)
      val labels = Array(5, 6, 7)
      val buf = new Array[Int](2)
      val m = gen.fill(0, labels, buf)
      assert(m == 2 && buf.toSeq == Seq(6, 7))
    } finally bc.destroy()
  }
}

/** For point i in cluster u, emits u, then `i % 10` distinct other clusters,
  * so a point has 0 to 9 candidates to score; needs k > 9.
  */
private final class CountingGen(k: Int) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int = {
    val u = labels(i)
    buf(0) = u
    (0 until i % 10).foreach(j => buf(1 + j) = (u + 1 + (i + j) % (k - 1)) % k)
    1 + i % 10
  }
  override def maxCandidates: Int = 10
}

/** For a point in cluster u, emits u, 3, 3, 1, u, 1, 2 — or, `deduped`, the
  * distinct ids of that list other than u, in first-emission order.
  */
private final class RepeatingGen(deduped: Boolean) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int = {
    val u = labels(i)
    val raw = Seq(u, 3, 3, 1, u, 1, 2)
    val ids = if (deduped) raw.distinct.filter(_ != u) else raw
    ids.copyToArray(buf)
    ids.length
  }
  override def maxCandidates: Int = 7
}

/** Every cluster but `victim`, for points outside it; for its members,
  * the same once `open`, and nothing before.
  */
private final class VictimGen(k: Int, victim: Int, open: Boolean) extends CandidateGen {
  override def fill(i: Int, labels: Array[Int], buf: Array[Int]): Int =
    if (labels(i) == victim && !open) 0
    else {
      var m = 0
      (0 until k).foreach(c => if (c != victim) { buf(m) = c; m += 1 })
      m
    }
  override def maxCandidates: Int = k
}
