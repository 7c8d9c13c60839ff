//! Machine-translation proxy (MiniGNMT).
//!
//! A GRU encoder–decoder with an embedding table and an output projection:
//! enough real recurrence to be order-sensitive, length-variable, and
//! quantization-sensitive. References are the teacher's own greedy decodes
//! with token-replacement noise, which sets the measured FP32 BLEU below
//! 100 the way WMT difficulty does for real GNMT.

use super::Precision;
use crate::registry::TaskId;
use mlperf_datasets::SyntheticSentences;
use mlperf_metrics::corpus_bleu;
use mlperf_nn::gru::GruCell;
use mlperf_stats::Rng64;
use mlperf_tensor::ops::dense;
use mlperf_tensor::quant::per_channel_i16_roundtrip;
use mlperf_tensor::{Shape, Tensor};

/// Vocabulary size (ids 0 and 1 reserved for BOS/EOS).
const VOCAB: u32 = 48;
/// Token-embedding dimensionality.
const EMBED_DIM: usize = 12;
/// GRU hidden dimensionality.
const HIDDEN_DIM: usize = 20;
/// Decode length cap.
const MAX_DECODE: usize = 16;
/// Minimum decode length before EOS is honored.
const MIN_DECODE: usize = 4;
/// Beginning-of-sequence token.
const BOS: u32 = 0;
/// End-of-sequence token.
const EOS: u32 = 1;

/// One precision variant of the seq2seq stack.
#[derive(Debug, Clone)]
struct Seq2Seq {
    embed: Tensor,
    encoder: GruCell,
    decoder: GruCell,
    proj_w: Tensor,
    proj_b: Tensor,
}

impl Seq2Seq {
    fn embed_token(&self, token: u32) -> Tensor {
        let row = token as usize % VOCAB as usize;
        let data = self.embed.data()[row * EMBED_DIM..(row + 1) * EMBED_DIM].to_vec();
        Tensor::from_vec(Shape::d1(EMBED_DIM), data).expect("row length fixed")
    }

    fn decode(&self, source: &[u32]) -> Vec<u32> {
        let inputs: Vec<Tensor> = source.iter().map(|t| self.embed_token(*t)).collect();
        let mut state = self.encoder.run(&inputs).expect("dims fixed");
        let mut output = Vec::new();
        let mut prev = BOS;
        for step in 0..MAX_DECODE {
            state = self
                .decoder
                .step(&self.embed_token(prev), &state)
                .expect("dims fixed");
            let logits = dense(&state, &self.proj_w, &self.proj_b).expect("dims fixed");
            let token = logits.argmax() as u32;
            if token == EOS && step >= MIN_DECODE {
                break;
            }
            // Reserved tokens never appear in the output stream.
            let emitted = if token <= EOS { token + 2 } else { token };
            output.push(emitted);
            prev = emitted;
        }
        output
    }

    /// Weight-quantized (roundtripped) copy: the recurrent cells carry
    /// per-row INT16 weights — INT16 is on the paper's approved-numerics
    /// list and is what v0.5-era recurrent deployments used (INT8 GNMT
    /// needs retraining, which the rules prohibit) — while the embedding
    /// table and the output projection (the "LM head") stay FP32, the
    /// precision-sensitive pieces of greedy decoding.
    fn quantized(&self) -> Self {
        let roundtrip = |t: &Tensor| per_channel_i16_roundtrip(t);
        Self {
            embed: self.embed.clone(),
            encoder: self.encoder.map_weights(roundtrip),
            decoder: self.decoder.map_weights(roundtrip),
            proj_w: self.proj_w.clone(),
            proj_b: self.proj_b.clone(),
        }
    }
}

/// A runnable translation proxy for the GNMT task.
#[derive(Debug)]
pub struct TranslatorProxy {
    corpus: SyntheticSentences,
    fp32: Seq2Seq,
    int8: Seq2Seq,
    references: Vec<Vec<u32>>,
}

impl TranslatorProxy {
    /// Builds the proxy with `len` sentences.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize, seed: u64) -> Self {
        let corpus = SyntheticSentences::new(VOCAB, len, seed ^ 0x776d_7431, 3, 12);
        let mut wrng = Rng64::new(seed ^ 0x676e_6d74);
        let embed = Tensor::fill_with(Shape::d2(VOCAB as usize, EMBED_DIM), |_| {
            (wrng.next_f64() as f32 * 2.0 - 1.0) * 0.7
        });
        let encoder = GruCell::new(EMBED_DIM, HIDDEN_DIM, &mut wrng);
        let decoder = GruCell::new(EMBED_DIM, HIDDEN_DIM, &mut wrng);
        let proj_w = Tensor::fill_with(Shape::d2(VOCAB as usize, HIDDEN_DIM), |_| {
            (wrng.next_f64() as f32 * 2.0 - 1.0) * 0.9
        });
        let proj_b = Tensor::zeros(Shape::d1(VOCAB as usize));
        let fp32 = Seq2Seq {
            embed,
            encoder,
            decoder,
            proj_w,
            proj_b,
        };
        let int8 = fp32.quantized();
        // References: teacher decodes with token-replacement noise.
        let mut ref_rng = Rng64::new(seed ^ 0x7265_6673);
        let references = (0..len)
            .map(|i| {
                let src = corpus.sentence(i).expect("index in range");
                let mut decoded = fp32.decode(&src);
                for tok in decoded.iter_mut() {
                    // ~7% of reference tokens differ from the teacher decode.
                    if ref_rng.next_bool(0.07) {
                        *tok = 2 + ref_rng.next_below(u64::from(VOCAB - 2)) as u32;
                    }
                }
                decoded
            })
            .collect();
        Self {
            corpus,
            fp32,
            int8,
            references,
        }
    }

    /// The task this proxy stands in for.
    pub fn task(&self) -> TaskId {
        TaskId::MachineTranslation
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.references.len()
    }

    /// Whether the corpus is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.references.is_empty()
    }

    /// The source sentence at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn source(&self, index: usize) -> Vec<u32> {
        self.corpus.sentence(index).expect("index in range")
    }

    /// Translates one sentence.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn translate(&self, precision: Precision, index: usize) -> Vec<u32> {
        let src = self.source(index);
        match precision {
            Precision::Fp32 => self.fp32.decode(&src),
            Precision::Quantized => self.int8.decode(&src),
        }
    }

    /// Corpus BLEU over the whole dataset at a precision.
    pub fn bleu(&self, precision: Precision) -> f64 {
        let candidates: Vec<Vec<u32>> = (0..self.len())
            .map(|i| self.translate(precision, i))
            .collect();
        corpus_bleu(&candidates, &self.references)
    }

    /// Scores externally produced translations.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is not parallel to the corpus.
    pub fn score(&self, candidates: &[Vec<u32>]) -> f64 {
        corpus_bleu(candidates, &self.references)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_bleu_high_but_imperfect() {
        let proxy = TranslatorProxy::new(120, 1);
        let bleu = proxy.bleu(Precision::Fp32);
        assert!(bleu > 40.0, "teacher vs its own noisy refs: {bleu}");
        assert!(bleu < 99.9, "noise should keep BLEU below 100: {bleu}");
    }

    #[test]
    fn int8_close_to_fp32() {
        let proxy = TranslatorProxy::new(120, 2);
        let fp32 = proxy.bleu(Precision::Fp32);
        let int8 = proxy.bleu(Precision::Quantized);
        assert!(int8 > 0.3 * fp32, "int8 collapsed: fp32={fp32} int8={int8}");
    }

    #[test]
    fn outputs_vary_across_sentences() {
        let proxy = TranslatorProxy::new(40, 3);
        let outputs: std::collections::HashSet<Vec<u32>> = (0..40)
            .map(|i| proxy.translate(Precision::Fp32, i))
            .collect();
        assert!(
            outputs.len() > 5,
            "decoder collapsed to {} outputs",
            outputs.len()
        );
    }

    #[test]
    fn reserved_tokens_never_emitted() {
        let proxy = TranslatorProxy::new(40, 4);
        for i in 0..40 {
            let out = proxy.translate(Precision::Fp32, i);
            assert!(out.iter().all(|t| *t >= 2 && *t < VOCAB));
            assert!(out.len() <= MAX_DECODE);
        }
    }

    #[test]
    fn deterministic() {
        let a = TranslatorProxy::new(30, 5);
        let b = TranslatorProxy::new(30, 5);
        for i in 0..30 {
            assert_eq!(a.references[i], b.references[i]);
            assert_eq!(
                a.translate(Precision::Quantized, i),
                b.translate(Precision::Quantized, i)
            );
        }
    }

    #[test]
    fn score_matches_bleu() {
        let proxy = TranslatorProxy::new(30, 6);
        let cands: Vec<Vec<u32>> = (0..30)
            .map(|i| proxy.translate(Precision::Fp32, i))
            .collect();
        assert_eq!(proxy.score(&cands), proxy.bleu(Precision::Fp32));
    }
}
