package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}
import repro.baselines.ClosureKMeans
import repro.eval.Metrics
import scala.jdk.CollectionConverters._

/** Points: the ingest check in `cached`, and passes reading the cache. */
class PointsSpec extends SparkSpec {

  private def good = Seq.tabulate(20)(i => Point(i.toLong, Array(i.toFloat, 1f, -i.toFloat)))

  /** The message `cached` fails with on pts, sliced in order into `parts` partitions. */
  private def rejected(pts: Seq[Point], parts: Int = 2): String = {
    val sp = spark
    import sp.implicits._
    intercept[IllegalArgumentException](Points.cached(sp.sparkContext.parallelize(pts, parts).toDF())).getMessage
  }

  test("cached accepts dense ids in any row order") {
    val sp = spark
    import sp.implicits._
    val points = Points.cached(sp.createDataset(good.reverse).repartition(3).toDF())
    try assert(Points.collectVecs(points, 20, 3).map(_(0).toInt).toSeq == (0 until 20))
    finally points.unpersist()
  }

  test("cached rejects a duplicate id, in one partition or across two") {
    // Two partitions of 10 rows: position 4 shares one with id 3, position 15 does not.
    Seq(4, 15).foreach { at =>
      val msg = rejected(good.updated(at, Point(3, Array(3f, 1f, -3f))))
      assert(msg.contains("id 3 appears more than once"), msg)
    }
  }

  test("cached rejects an id that would wrap to a dense one") {
    val msg = rejected(good.updated(5, Point((1L << 32) + 5, Array(5f, 1f, -5f))))
    assert(msg.contains("id 4294967301 is outside [0, 20)"), msg)
    assert(rejected(good.updated(5, Point(-5, Array(5f, 1f, -5f)))).contains("id -5 is outside"))
  }

  test("cached rejects a ragged vector, a NaN and an infinity, naming the point") {
    Seq(Array(7f, 1f), Array(7f, Float.NaN, 1f), Array(7f, Float.PositiveInfinity, 1f)).foreach { v =>
      val msg = rejected(good.updated(7, Point(7, v)))
      assert(msg.contains("point 7"), msg)
    }
    Seq(1, 2).foreach { parts =>
      val msg = rejected(good.updated(0, Point(0, Array(0f, 1f))), parts)
      assert(msg.contains("but point 0 has 2"), msg)
    }
  }

  test("fetchVecs fails on an id no point has, naming it") {
    val e = intercept[IllegalArgumentException](Points.fetchVecs(TestData.tiny, Seq(3L, 600L)))
    assert(e.getMessage.contains("no point has id 600"), e.getMessage)
  }

  test("passes after cached read the cache, not the source") {
    val sp = spark
    import sp.implicits._
    val rows = sp.sparkContext.longAccumulator("source rows")
    val n = 500
    val df = sp.range(n).map { id => rows.add(1); (id, Array.fill(4)(id.toFloat % 7)) }.toDF("id", "vec")
    val points = Points.cached(df)
    try {
      assert(rows.sum == n)
      val labels = TestData.randomLabels(n, 5, 1)
      val st = ClusterState.fromLabels(points, labels, 5, 4)
      Engine.epoch(points, labels, st, new AllClustersGen(5), Engine.NearestRule)
      Metrics.sumSqNorm(points)
      Points.collectVecs(points, n, 4)
      assert(rows.sum == n, "a pass recomputed the source")
    } finally points.unpersist()
  }

  /** The start events of the Spark jobs `body` runs, in order, with the
    * description the caller had set before `body` and still has after it.
    */
  private def jobsOf(body: => Unit): Seq[SparkListenerJobStart] = {
    val sc = spark.sparkContext
    val seen = new ConcurrentLinkedQueue[SparkListenerJobStart]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = seen.add(e)
    }
    val group = s"passes-${System.nanoTime()}"
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "the caller's description")
      try {
        body
        assert(sc.getLocalProperty("spark.job.description") == "the caller's description")
      } finally sc.clearJobGroup()
      // Listener events arrive in order, so once this job's start is seen,
      // so are those of every job body ran.
      sc.setJobGroup(s"$group-end", "end")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30000000000L
      def ended = seen.asScala.exists(_.properties.getProperty("spark.jobGroup.id") == s"$group-end")
      while (!ended && System.nanoTime() < deadline) Thread.sleep(5)
      assert(ended, "the listener did not see the end job")
    } finally sc.removeSparkListener(listener)
    seen.asScala.toSeq.filter(_.properties.getProperty("spark.jobGroup.id") == group)
  }

  /** Fails unless `body` ran one job per name in `layers`, in order, each of
    * one stage whose final RDD is `points.rdd` and described by its name.
    */
  private def assertPasses(points: => Dataset[Point], layers: String*)(body: => Unit): Unit = {
    val jobs = jobsOf(body)
    assert(jobs.map(_.properties.getProperty("spark.job.description")) == layers)
    jobs.zip(layers).foreach { case (j, layer) =>
      assert(j.stageInfos.length == 1, layer)
      assert(j.stageInfos.head.rddInfos.map(_.id).max == points.rdd.id, s"$layer: the stage's final RDD is not points.rdd")
    }
  }

  test("every pass over the points is one job of one stage on points.rdd, described by its layer") {
    val sp = spark
    import sp.implicits._
    val (n, d, k) = (600, 8, 7)
    val points = TestData.tiny
    val labels = TestData.randomLabels(n, k, 31)
    var cached: Dataset[Point] = null
    try {
      assertPasses(cached, "core.Points.cached") {
        cached = Points.cached(sp.sparkContext.parallelize(good, 3).toDF())
      }
    } finally if (cached != null) cached.unpersist()
    val st = ClusterState.fromLabels(points, labels, k, d)
    assertPasses(points, "core.Points.fetchVecs")(Points.fetchVecs(points, Seq(1L, 2L)))
    assertPasses(points, "core.Points.collectVecs")(Points.collectVecs(points, n, d))
    assertPasses(points, "core.ClusterState.fromLabels")(ClusterState.fromLabels(points, labels, k, d))
    assertPasses(points, "core.Engine.epoch", "core.Engine.epoch") {
      Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.NearestRule)
      Engine.epoch(points, labels, st, new AllClustersGen(k), Engine.BoostRule, recomputeState = false)
    }
    assertPasses(points, "eval.Metrics.sumSqNorm")(Metrics.sumSqNorm(points))
    assertPasses(points, "eval.Metrics.distortionDirect")(Metrics.distortionDirect(points, labels, st))
    assertPasses(points, "core.Points.fetchVecs", "eval.Metrics.bruteTop1")(Metrics.bruteTop1(points, Array(3L, 4L)))
    assertPasses(points, "baselines.ClosureKMeans.buildBuckets")(ClosureKMeans.buildBuckets(points, n, d, 2, 50, 1))
  }

  test("every checked pass fails on n - 1, n + 1 and a wrong d, naming the point or both counts") {
    val (n, d, k) = (600, 8, 7)
    val points = TestData.tiny
    def labels(m: Int) = TestData.randomLabels(m, k, 31)
    def state(e: Int) = ClusterState.fromCentroids(Array.tabulate(k)(c => Array.fill(e)(c.toDouble)))
    val passes = Seq[(String, (Int, Int) => Any)](
      "Engine.epoch" -> ((m, e) => Engine.epoch(points, labels(m), state(e), new AllClustersGen(k), Engine.NearestRule)),
      "ClusterState.fromLabels" -> ((m, e) => ClusterState.fromLabels(points, labels(m), k, e)),
      "Metrics.distortionDirect" -> ((m, e) => Metrics.distortionDirect(points, labels(m), state(e))),
      "ClosureKMeans.buildBuckets" -> ((m, e) => ClosureKMeans.buildBuckets(points, m, e, 2, 50, 1)),
      "ClosureKMeans.fit" -> ((m, e) => ClosureKMeans.fit(points, m, k, e, iters = 1, seed = 1)),
    )
    val cases = Seq(
      (n - 1, d, s"point \\d+ is outside \\[0, n=${n - 1}\\)"),
      (n + 1, d, s"the pass saw $n points, but there are n=${n + 1} labels"),
      (n, d / 2, s"point \\d+ has $d values, expected d=${d / 2}"),
    )
    for ((name, run) <- passes; (m, e, want) <- cases) {
      val msg = intercept[Exception](run(m, e)).getMessage
      assert(msg.matches(s"(?s).*$want.*"), s"$name with n=$m, d=$e: $msg")
    }
  }

  test("collectVecs equals a per-point collect on 1 and 4 partitions") {
    val (n, d) = (600, 8)
    Seq(1, 4).foreach { parts =>
      val pts = TestData.tiny.repartition(parts).cache()
      try {
        val want = new Array[Array[Float]](n)
        pts.rdd.collect().foreach(p => want(p.id.toInt) = p.vec)
        val got = Points.collectVecs(pts, n, d)
        assert(got.length == n)
        (0 until n).foreach(i => assert(got(i) sameElements want(i), s"$parts partitions, point $i"))
      } finally pts.unpersist()
    }
  }

  test("collectVecs keeps its fault messages on 1 and 4 partitions") {
    val sp = spark
    import sp.implicits._
    Seq(1, 4).foreach { parts =>
      def msg(pts: Seq[Point], n: Int = 20): String =
        intercept[IllegalArgumentException](Points.collectVecs(sp.sparkContext.parallelize(pts, parts).toDS(), n, 3)).getMessage
      assert(msg(good.updated(7, Point(7, Array(7f, 1f)))).contains("point 7 has 2 values, expected d=3"))
      assert(msg(good.updated(7, Point(7, Array(7f, Float.NaN, 1f)))).contains("point 7 has a value that is not finite"))
      assert(msg(good.updated(7, Point(25, Array(7f, 1f, 1f)))).contains("id 25 is outside [0, 20)"))
      assert(msg(good.updated(7, Point(-1, Array(7f, 1f, 1f)))).contains("id -1 is outside [0, 20)"))
      assert(msg(good, n = 21).contains("ids are not dense in [0, 21)"))
    }
  }
}
