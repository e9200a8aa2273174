package repro.core

import repro.SparkSpec

/** Candidate generators: closure and seed-closure semantics. Asserts check
  * the exact emitted sequence, since the engine's tie-breaking follows it.
  */
class CandidatesSpec extends SparkSpec {

  private def mkBuckets(n: Int, per: Int): (Array[Array[Int]], Array[Array[Array[Int]]]) = {
    // one projection, buckets = consecutive id ranges
    val nb = n / per
    val memberOf = Array(Array.tabulate(n)(i => math.min(nb - 1, i / per)))
    val buckets = Array(Array.tabulate(nb)(b =>
      (b * per until math.min(n, if (b == nb - 1) n else (b + 1) * per)).toArray))
    (memberOf, buckets)
  }

  test("ClosureGen returns the labels of all bucket mates") {
    val (memberOf, buckets) = mkBuckets(12, 4)
    val bcM = spark.sparkContext.broadcast(memberOf)
    val bcB = spark.sparkContext.broadcast(buckets)
    try {
      val gen = new ClosureGen(bcM, bcB)
      val labels = Array.tabulate(12)(i => 100 + i)
      val buf = new Array[Int](gen.maxCandidates)
      val m = gen.fill(5, labels, buf)
      assert(buf.take(m).toSeq == Seq(104, 105, 106, 107))
    } finally { bcM.destroy(); bcB.destroy() }
  }

  test("ClosureGen unions candidates across projections") {
    val (m1, b1) = mkBuckets(8, 4)
    val memberOf = Array(m1(0), Array.tabulate(8)(i => i % 2)) // second projection interleaves
    val buckets = Array(b1(0), Array(Array(0, 2, 4, 6), Array(1, 3, 5, 7)))
    val bcM = spark.sparkContext.broadcast(memberOf)
    val bcB = spark.sparkContext.broadcast(buckets)
    try {
      val gen = new ClosureGen(bcM, bcB)
      val labels = Array.tabulate(8)(identity)
      val buf = new Array[Int](gen.maxCandidates)
      val m = gen.fill(0, labels, buf)
      assert(buf.take(m).toSeq == Seq(0, 1, 2, 3, 0, 2, 4, 6))
    } finally { bcM.destroy(); bcB.destroy() }
  }

  test("SeedClosureGen yields seed clusters of neighbourhood mates plus the fallback") {
    val (memberOf, buckets) = mkBuckets(12, 4)
    val seedOf = Array.fill(12)(-1)
    seedOf(6) = 3 // id 6 is the seed of cluster 3
    val bcM = spark.sparkContext.broadcast(memberOf)
    val bcB = spark.sparkContext.broadcast(buckets)
    val bcS = spark.sparkContext.broadcast(seedOf)
    try {
      val gen = new SeedClosureGen(bcM, bcB, bcS, k = 5)
      val buf = new Array[Int](gen.maxCandidates)
      // id 5 shares bucket {4,5,6,7} with seed 6 -> candidate 3; fallback 5 % 5 = 0
      val m = gen.fill(5, new Array[Int](12), buf)
      assert(buf.take(m).toSeq == Seq(0, 3))
    } finally { bcM.destroy(); bcB.destroy(); bcS.destroy() }
  }

  test("SeedClosureGen always yields at least the fallback candidate") {
    val (memberOf, buckets) = mkBuckets(8, 4)
    val bcM = spark.sparkContext.broadcast(memberOf)
    val bcB = spark.sparkContext.broadcast(buckets)
    val bcS = spark.sparkContext.broadcast(Array.fill(8)(-1))
    try {
      val gen = new SeedClosureGen(bcM, bcB, bcS, k = 3)
      val buf = new Array[Int](gen.maxCandidates)
      val m = gen.fill(7, new Array[Int](8), buf)
      assert(buf.take(m).toSeq == Seq(7 % 3))
    } finally { bcM.destroy(); bcB.destroy(); bcS.destroy() }
  }
}
