//! Offline stand-in for `criterion` (the API subset this workspace's
//! benches use). Statistical machinery is out of scope: each benchmark
//! runs its closure `sample_size` times and prints the mean, minimum and
//! median wall-clock time per sample, which is enough to compare hot
//! paths by hand and keeps the `cargo bench` targets compiling and
//! runnable without the registry.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into(), self.sample_size, &mut f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.criterion.sample_size, &mut |b| f(b, input));
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoLabel, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_one(&label, self.criterion.sample_size, &mut f);
        self
    }

    pub fn finish(self) {}
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        samples,
        times: Vec::with_capacity(samples),
    };
    f(&mut bencher);
    let [mean, min, median] = summarize(&mut bencher.times);
    println!(
        "bench {label:<48} mean {mean:>10.2?}  min {min:>10.2?}  median {median:>10.2?}  ({} iters)",
        bencher.times.len()
    );
}

/// `[mean, min, median]` of the sample times (the upper middle for an even
/// count); all zero when there are none.
fn summarize(times: &mut [Duration]) -> [Duration; 3] {
    if times.is_empty() {
        return [Duration::ZERO; 3];
    }
    times.sort_unstable();
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    [mean, times[0], times[times.len() / 2]]
}

pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            self.times.push(start.elapsed());
        }
    }
}

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

pub trait IntoLabel {
    fn into_label(self) -> String;
}

impl IntoLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoLabel for String {
    fn into_label(self) -> String {
        self
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_closures_the_requested_number_of_times() {
        let mut c = Criterion::default().sample_size(3);
        let mut calls = 0u64;
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(BenchmarkId::new("f", 42), &7u32, |b, &x| {
            b.iter(|| {
                calls += 1;
                x * 2
            })
        });
        group.finish();
        assert_eq!(calls, 3);
    }

    #[test]
    fn bench_function_and_black_box() {
        let mut c = Criterion::default().sample_size(2);
        let mut calls = 0;
        c.bench_function("direct", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 2);
        assert_eq!(black_box(5), 5);
    }

    #[test]
    fn summary_reports_mean_min_and_median() {
        let ms = Duration::from_millis;
        let mut times = vec![ms(9), ms(1), ms(5), ms(1)];
        assert_eq!(summarize(&mut times), [ms(4), ms(1), ms(5)]);
        assert_eq!(summarize(&mut []), [Duration::ZERO; 3]);
    }
}
