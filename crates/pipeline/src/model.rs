//! Pipeline models (Fig 2(a)) and microarchitecture compositions (§4.1).

/// Static resource budget of one pipeline (cluster).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PipeModel {
    pub name: &'static str,
    /// Hardware thread contexts this pipeline supports.
    pub contexts: u8,
    /// Maximum instructions per cycle through every width-limited stage
    /// (decode, rename, dispatch, issue, commit).
    pub width: u8,
    /// Maximum threads contributing fetched instructions per cycle.
    pub fetch_threads: u8,
    /// Integer / floating-point / load-store issue-queue entries.
    pub iq: u16,
    pub fq: u16,
    pub lq: u16,
    pub int_units: u8,
    pub fp_units: u8,
    pub ldst_units: u8,
    /// Decoupling-buffer entries between the shared fetch engine and this
    /// pipeline's decode stage (§4: 32 for M6/M4, 16 for M2; the monolithic
    /// baseline's fetch feeds decode through a width-sized latch).
    pub buffer: u16,
}

/// The monolithic SMT baseline pipeline.
pub const M8: PipeModel = PipeModel {
    name: "M8",
    contexts: 4,
    width: 8,
    fetch_threads: 2,
    iq: 64,
    fq: 64,
    lq: 64,
    int_units: 6,
    fp_units: 3,
    ldst_units: 4,
    buffer: 8,
};

pub const M6: PipeModel = PipeModel {
    name: "M6",
    contexts: 2,
    width: 6,
    fetch_threads: 2,
    iq: 32,
    fq: 32,
    lq: 32,
    int_units: 4,
    fp_units: 2,
    ldst_units: 2,
    buffer: 32,
};

pub const M4: PipeModel = PipeModel {
    name: "M4",
    contexts: 2,
    width: 4,
    fetch_threads: 2,
    iq: 32,
    fq: 32,
    lq: 32,
    int_units: 3,
    fp_units: 2,
    ldst_units: 2,
    buffer: 32,
};

pub const M2: PipeModel = PipeModel {
    name: "M2",
    contexts: 1,
    width: 2,
    fetch_threads: 1,
    iq: 16,
    fq: 16,
    lq: 16,
    int_units: 1,
    fp_units: 1,
    ldst_units: 1,
    buffer: 16,
};

impl PipeModel {
    /// Look up a model by name.
    pub fn by_name(name: &str) -> Option<PipeModel> {
        match name {
            "M8" => Some(M8),
            "M6" => Some(M6),
            "M4" => Some(M4),
            "M2" => Some(M2),
            _ => None,
        }
    }
}

/// A full microarchitecture: an ordered collection of pipelines.
///
/// Names follow the paper's convention: `2M4+2M2` = two M4 pipelines plus
/// two M2 pipelines. The monolithic baseline is plain `M8`.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct MicroArch {
    pub name: String,
    pub pipes: Vec<PipeModel>,
    /// Scheduling contexts of the whole chip. Normally the sum of pipeline
    /// contexts, but the paper's §3 assumption grants the 4-context M8
    /// baseline six schedulable contexts (at no modelled area cost) so
    /// 6-thread workloads can run on it.
    pub max_threads: u8,
}

impl MicroArch {
    /// Compose a microarchitecture from pipeline models.
    pub fn new(pipes: Vec<PipeModel>) -> Self {
        assert!(!pipes.is_empty(), "a microarchitecture needs at least one pipeline");
        let name = Self::canonical_name(&pipes);
        let max_threads = pipes.iter().map(|p| p.contexts as u16).sum::<u16>().min(255) as u8;
        MicroArch { name, pipes, max_threads }
    }

    /// `2M4+2M2`-style canonical name (run-length over consecutive equal
    /// models, widest first as the paper lists them).
    fn canonical_name(pipes: &[PipeModel]) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut i = 0;
        while i < pipes.len() {
            let mut j = i;
            while j < pipes.len() && pipes[j].name == pipes[i].name {
                j += 1;
            }
            let n = j - i;
            if n == 1 && pipes.len() == 1 {
                parts.push(pipes[i].name.to_string());
            } else {
                parts.push(format!("{}{}", n, pipes[i].name));
            }
            i = j;
        }
        parts.join("+")
    }

    /// Parse a paper-style name (`M8`, `3M4`, `2M4+2M2`, `1M6+2M4+2M2`).
    pub fn parse(name: &str) -> Result<Self, String> {
        let mut pipes = Vec::new();
        for part in name.split('+') {
            let part = part.trim();
            let split = part.find('M').ok_or_else(|| format!("bad component: {part}"))?;
            let (count_s, model_s) = part.split_at(split);
            let count: usize = if count_s.is_empty() {
                1
            } else {
                count_s.parse().map_err(|_| format!("bad count in {part}"))?
            };
            if count == 0 {
                return Err(format!("zero count in {part}"));
            }
            let model =
                PipeModel::by_name(model_s).ok_or_else(|| format!("unknown model {model_s}"))?;
            pipes.extend(std::iter::repeat_n(model, count));
        }
        if pipes.is_empty() {
            return Err("empty microarchitecture".into());
        }
        let mut arch = Self::new(pipes);
        if arch.is_monolithic() {
            // §3 assumption: the baseline runs up to six threads.
            arch.max_threads = 6;
        }
        Ok(arch)
    }

    /// The monolithic SMT baseline (M8, with the §3 six-thread assumption).
    pub fn baseline() -> Self {
        Self::parse("M8").unwrap()
    }

    /// The six microarchitectures of Fig 3, in paper order.
    pub fn paper_set() -> Vec<Self> {
        ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]
            .iter()
            .map(|n| Self::parse(n).unwrap())
            .collect()
    }

    /// Single-pipeline (conventional SMT) configuration?
    pub fn is_monolithic(&self) -> bool {
        self.pipes.len() == 1
    }

    /// Total issue width across pipelines.
    pub fn total_width(&self) -> u32 {
        self.pipes.iter().map(|p| p.width as u32).sum()
    }

    /// Total hardware contexts (pipeline capacity, ignoring the baseline
    /// scheduling assumption).
    pub fn total_contexts(&self) -> u32 {
        self.pipes.iter().map(|p| p.contexts as u32).sum()
    }
}

impl std::fmt::Display for MicroArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_resource_table() {
        for (m, ctx, w, thr, q, int, fp, ld) in [
            (M8, 4, 8, 2, 64, 6, 3, 4),
            (M6, 2, 6, 2, 32, 4, 2, 2),
            (M4, 2, 4, 2, 32, 3, 2, 2),
            (M2, 1, 2, 1, 16, 1, 1, 1),
        ] {
            assert_eq!(m.contexts, ctx, "{}", m.name);
            assert_eq!(m.width, w, "{}", m.name);
            assert_eq!(m.fetch_threads, thr, "{}", m.name);
            assert_eq!(m.iq, q, "{}", m.name);
            assert_eq!(m.int_units, int, "{}", m.name);
            assert_eq!(m.fp_units, fp, "{}", m.name);
            assert_eq!(m.ldst_units, ld, "{}", m.name);
        }
    }

    #[test]
    fn decoupling_buffer_sizes_match_section4() {
        assert_eq!(M6.buffer, 32);
        assert_eq!(M4.buffer, 32);
        assert_eq!(M2.buffer, 16);
    }

    #[test]
    fn parse_paper_names() {
        let a = MicroArch::parse("2M4+2M2").unwrap();
        assert_eq!(a.pipes.len(), 4);
        assert_eq!(a.name, "2M4+2M2");
        assert_eq!(a.total_contexts(), 6);
        assert_eq!(a.total_width(), 12);

        let a = MicroArch::parse("1M6+2M4+2M2").unwrap();
        assert_eq!(a.pipes.len(), 5);
        assert_eq!(a.total_contexts(), 8);
        assert_eq!(a.total_width(), 18);

        let a = MicroArch::parse("M8").unwrap();
        assert!(a.is_monolithic());
        assert_eq!(a.max_threads, 6, "§3 six-thread baseline assumption");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MicroArch::parse("").is_err());
        assert!(MicroArch::parse("2X4").is_err());
        assert!(MicroArch::parse("0M4").is_err());
        assert!(MicroArch::parse("M9").is_err());
    }

    #[test]
    fn canonical_names_roundtrip() {
        for name in ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"] {
            let a = MicroArch::parse(name).unwrap();
            let b = MicroArch::parse(&a.name).unwrap();
            assert_eq!(a.pipes, b.pipes, "{name} vs {}", a.name);
        }
    }

    #[test]
    fn paper_set_order_and_contexts() {
        let set = MicroArch::paper_set();
        assert_eq!(set.len(), 6);
        let names: Vec<&str> = set.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]);
        // Context capacity per §4.1: all hdSMT configs can hold ≥ 6 threads.
        for a in &set[1..] {
            assert!(a.max_threads >= 6, "{}", a.name);
        }
    }
}
